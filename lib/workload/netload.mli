(** Simulated client fleets for the network front-end.

    Multiplexes [nclients] end-users over [nconns] connections per server
    node — users per connection is unbounded, so thousands to millions of
    simulated clients cost only memory, not simulated cores: the whole
    fleet runs as bare scheduler events ({!Dps_sthread.Sthread.at} timers
    and connection rx callbacks), off-machine, exactly like the paper's
    stubbed network clients but speaking the real wire protocol.

    Two load models:
    - {e closed-loop}: each user issues one request, waits for its
      response, thinks for [think] cycles, repeats — throughput saturates
      at the server's capacity, latency stays civil;
    - {e open-loop}: requests arrive by a Poisson process at [rate_mops]
      regardless of completions — offered load can exceed capacity, and
      the tail latencies show it.

    Requests follow the memcached study's shape: Zipfian (or uniform) keys
    in [0, key_range), [set_pct]% sets of 2-line values, the rest
    single-key gets. Responses are matched to requests in connection FIFO
    order (the ASCII protocol is in-order), each completion is a latency
    sample, and everything is seeded — the same spec replays bit-for-bit.

    There is one fleet engine, {!run_routed}. It reaches its servers
    through a {!router}: {!single} for one server, the cluster's ring
    ([Dps_cluster.Cluster.router]) for a sharded store. *)

module Sthread := Dps_sthread.Sthread
module Net := Dps_net.Net

type mode =
  | Closed of { think : int }
  | Open of { rate_mops : float }  (** offered load, Mops per simulated second *)

type spec = {
  nclients : int;
  nconns : int;
  set_pct : int;  (** 0..100 *)
  key_range : int;
  zipfian : bool;
  mode : mode;
  seed : int64;
}

val spec :
  ?nclients:int ->
  ?nconns:int ->
  ?set_pct:int ->
  ?key_range:int ->
  ?zipfian:bool ->
  ?mode:mode ->
  ?seed:int64 ->
  unit ->
  spec
(** Defaults: 1000 clients, 64 connections, 10% sets, 16384 keys,
    Zipfian, closed-loop with 4000-cycle think time, seed 42. Every set
    carries a 2-line (128 B) value. *)

type result = {
  issued : int;
  completed : int;
  errors : int;  (** ERROR / CLIENT_ERROR / SERVER_ERROR responses *)
  hits : int;  (** values returned across all gets *)
  refused_conns : int;
  duration_cycles : int;
      (** from the fleet's start until the scheduler ran out of events: the
          last reply, poll or retry, or the [stop] call after the drain
          grace, whichever came last. Request timeouts schedule no events,
          so they never stretch it. *)
  throughput_mops : float;  (** completed requests per simulated second *)
  mean_latency : float;  (** cycles, request issue to response parse *)
  p50 : int;
  p99 : int;
  p999 : int;
}

val pp_result : Format.formatter -> result -> unit

(** {1 Routers and the fleet}

    A {!router} abstracts the cluster's sharding so this library needs no
    dependency on [lib/cluster]: clients hash each key to a shard node,
    keep a per-node connection pool, and recover from failure with capped
    exponential backoff + jitter. The retry policy only ever retransmits
    an operation when the original cannot have been applied by a
    surviving node — refused connection, [SERVER_ERROR busy] shed, or the
    target declared dead — never on a slow-but-live FIFO connection,
    where a blind retransmit would double-apply. *)

type router = {
  nnodes : int;
  net_of : int -> Net.t;  (** the node's network front-end *)
  nic_of : int -> int -> int;
      (** [nic_of node slot]: which NIC of the node's front-end connection
          slot [slot] (0 .. [nconns] - 1) dials *)
  node_of_key : int -> int;  (** current ring owner of a key *)
  node_up : int -> bool;
      (** [false] from the moment the node is declared dead, for good *)
  failover_of : int -> int;
      (** retry target for a down node whose ring replay is still pending *)
  subscribe_down : (int -> unit) -> unit;
      (** register a callback fired when the cluster declares a node dead,
          at the moment [node_up] turns [false]; the fleet uses it to drain
          (close + reroute) orphaned connections promptly *)
}

val single : Net.t -> router
(** One server: a single node that is always up, is its own failover
    target and is never declared dead. Connection slots are spread
    round-robin over the front-end's NICs, so every socket's pollers take
    a share of the fleet. *)

type rspec = {
  base : spec;
      (** key/value mix, clients, load model and seed; [nconns] is
          {e per node} *)
  key_pool : int array option;  (** restrict keys to this pool (incast) *)
  churn_interval : int;
      (** when positive, close one drained connection every this many
          cycles (round-robin) and reconnect lazily on next use *)
  on_acked : (opid:int -> node:int -> unit) option;
      (** exactly-once ledger hook: a set's STORED ack parsed, from
          [node]. The op id is also carried to the server in the
          memcached [flags] field. *)
}

val rspec :
  ?base:spec ->
  ?key_pool:int array ->
  ?churn_interval:int ->
  ?on_acked:(opid:int -> node:int -> unit) ->
  unit ->
  rspec
(** Defaults: the default {!spec}, every key, no churn, no ledger hook.
    The retry policy is fixed: a request is suspect after 60k cycles
    outstanding, a logical op gets at most 6 wire sends, and retries back
    off from 2k cycles doubling to 40k. *)

type routed_result = {
  agg : result;  (** [issued] counts logical ops; retries are separate *)
  retries : int;  (** extra wire sends (backoff path) *)
  rerouted : int;  (** retries that changed node *)
  busy : int;  (** [SERVER_ERROR busy] sheds absorbed and retried *)
  timeouts : int;
      (** ops with at least one timed-out wire send, counted once per op. A
          send to a live node times out if it leaves its connection (reply
          parsed, busy shed, or connection drained) 60k cycles or more
          after it went out, or is still on it when the run ends. A live
          node's slow send is never retransmitted. A send to a node already
          declared dead never counts: if it is still on its connection 60k
          cycles later, the fleet drains that connection and retries. *)
  dropped : int;  (** ops given up after 6 wire sends or at the deadline *)
  abandoned : int;  (** ops never resolved when the run ended *)
  churned : int;  (** connections recycled by the churn process *)
  conns_opened : int;
      (** [Net.connect] calls across the run (first opens plus reopens
          after churn/failover) — the fleet-scale gate's witness that a
          ≥250k-connection stage really dialed that many connections *)
  per_node_completed : int array;
  per_node_p99 : int array;
  goodput_timeline : int array;  (** completions per [window_cycles] bucket *)
  window_cycles : int;  (** [max 1 (duration / 32)] *)
}

val run_routed :
  Sthread.t -> router -> rspec -> duration:int -> ?stop:(unit -> unit) -> unit -> routed_result
(** Drive the fleet for [duration] cycles of issue window, then stop
    issuing, let in-flight requests complete, and invoke [stop] (typically
    [Server.stop], or [Cluster.stop] for a sharded store) once the issue
    window plus a drain grace has elapsed: [10 × Net.link_latency], plus
    the 60k-cycle request timeout, plus 20k cycles, so reroutes still in
    backoff can land. Runs the scheduler to quiescence and reports
    fleet-side measurements; [agg.throughput_mops] counts every
    completion, including those in the drain grace, against the
    [duration]-cycle window.

    User [u] sends on connection slot [u mod nconns] of the node that owns
    the key; connections open lazily on first use. Closed-loop users start
    staggered over one think time. Open-loop arrivals run one Poisson
    process per connection slot, each arrival a new request of user =
    slot, drawn from a third split of the seed's stream so the closed-loop
    key and jitter streams do not depend on the load model.

    Raises [Invalid_argument] before scheduling anything if an open-loop
    [rate_mops] is not positive and finite. *)
