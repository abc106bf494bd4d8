(** Memcached server event loop over the simulated network front-end.

    One acceptor thread plus [npollers] per-core poller threads. The
    acceptor places each incoming connection on a poller of the NIC's own
    socket (round-robin within the socket), so a connection's request
    bytes, response bytes and — under a DPS backend — most of its keys'
    partition traffic stay socket-local; it refuses connections beyond
    [max_conns] (the connection-limit half of the backpressure policy; the
    per-connection receive window in {!Dps_net.Net} is the other half).

    Pollers do blocking I/O: each parks until one of its connections turns
    readable (a DPS poller also until a delegation lands on its rings),
    then drains it — charged ring reads, incremental wire parsing, request
    routing into the backend (a {!Dps_memcached.Variants} record:
    shared-memory, ffwd or DPS; under DPS a poller is a DPS client and
    serves its peers while awaiting its own delegations), and one
    batched response write per service round (at most 16 requests), so
    response packets amortize link serialization. Requests are drained
    2 KB per receive and every hit returns a 2-line (128 B) value.

    Pollers are pinned by the backend's own placement rule, so under DPS
    the poller set *is* the client set of the paper's runtime. *)

module Sthread := Dps_sthread.Sthread
module Net := Dps_net.Net

type config = {
  npollers : int;
  max_conns : int;  (** connections beyond this are refused *)
  park_max : int;
      (** no longer read: pollers park with no timer and are woken by a
          readable connection or a delegation landing on their rings. The
          field stays only because the benchmark's workloads
          ([bench/perf/workloads.ml]) set it, and goes with the next
          change to that benchmark. *)
  acceptor_hw : int option;
      (** hardware thread for the acceptor; [None] (the default) uses the
          machine's last thread. Cluster mode pins each node's acceptor
          inside the node's own socket so co-hosted servers don't collide. *)
  shed_threshold : int;
      (** bounded-queue load shedding: when a poller's ready-connection
          backlog reaches this many entries, further parsed requests are
          answered [SERVER_ERROR busy] without touching the backend, so an
          overloaded shard degrades into fast rejections (which routed
          clients retry after backoff) instead of unbounded queueing delay.
          [0] (the default) disables shedding. *)
  front_cache : int;
      (** per-poller front-cache entries ({!Frontcache}, DESIGN.md §10):
          each poller screens its GET path through a tiny version-validated
          presence cache, turning hot-key reads into a local probe instead
          of a delegation round-trip into the owning partition. Requires a
          backend built with [~versions] > 0 (otherwise silently off). [0]
          (the default) disables the cache entirely — the charge stream is
          bit-identical to a build without the feature. *)
}

val default_config : config
(** 40 pollers, 1024 connections, the acceptor on the machine's last
    thread, no shedding, no front cache. *)

type stats = {
  mutable conns : int;
  mutable requests : int;  (** well-formed requests served *)
  mutable gets : int;  (** get requests (a multi-get counts once) *)
  mutable lookups : int;  (** individual keys looked up *)
  mutable hits : int;
  mutable sets : int;
  mutable dels : int;
  mutable bad_requests : int;
      (** malformed frames answered ERROR / CLIENT_ERROR / SERVER_ERROR *)
  mutable batches : int;  (** batched response writes *)
  mutable parks : int;  (** poller blocking episodes *)
  mutable shed : int;  (** requests answered [SERVER_ERROR busy] under overload *)
  mutable closed : int;
      (** peer-closed connections observed and released; the acceptor
          admits against [conns - closed], so churny clients cannot
          exhaust the connection limit *)
}

type t

val start : Sthread.t -> Net.t -> backend:Dps_memcached.Variants.t -> config -> t
(** Spawn the acceptor and pollers (pinned by [backend.client_hw]). Call
    before [Sthread.run]; the server serves until {!stop}. *)

val stop : t -> unit
(** Initiate shutdown from any context (typically an {!Sthread.at} event at
    the measurement horizon): stops accepting, wakes every parked thread;
    pollers finish their current round, run the backend's [finish] (for DPS
    this drains in-flight delegations), and exit. *)

val stats : t -> stats

val fc_stats : t -> Frontcache.stats
(** Front-cache counters summed across this server's pollers; all zero
    when the cache is off. *)

val front_cache_on : t -> bool
(** Whether any poller actually runs a front cache (config asked for one
    {e and} the backend publishes per-key versions). *)

val poller_tids : t -> int list
(** Simulated thread ids of the pollers that have started running — the
    kill set for fault injection against this server instance. *)

val acceptor_tid : t -> int
(** The acceptor's simulated thread id, or [-1] before it first runs. *)

val pending_conns : t -> int
(** Connections currently queued ready across all pollers; [0] once the
    server is fully drained (leak check for churn soak tests). *)

val register_obs : ?labels:(string * string) list -> t -> Dps_obs.Registry.t -> unit
(** Publish the server's stats record as [srv.<counter>] callback gauges
    in an observability registry; [labels] (e.g. [("node", "2")]) scope
    the metrics when several server instances share one registry. *)
