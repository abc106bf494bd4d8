(** Multi-node cluster serving with failover.

    Runs [nnodes] independent {!Dps_server.Server} instances on one
    simulated machine — each with its own network front-end, its own DPS
    backend, and a placement slice confined to one socket, so the paper's
    invariant (delegation stays socket-local) holds per node. Keys are
    sharded over the nodes by a consistent-hash {!Ring} with virtual
    nodes; routed client fleets ({!Dps_workload.Netload.run_routed}) hash
    each key to its shard and fail over with capped exponential backoff.

    Failure handling is gossip-free: a periodic probe samples each node's
    own DPS watchdog ({!Dps_memcached.Variants.health}); a node whose
    pollers have all crashed is declared dead — the ring is replayed (its
    keys remap onto survivors), its server shell is stopped so pending
    connection attempts are refused instead of hanging, and registered
    callbacks let client fleets drain orphaned connections promptly.
    Overload is handled before failure: each server sheds requests past
    its [shed_threshold] with [SERVER_ERROR busy], which routed clients
    absorb and retry after backoff. *)

module Sthread := Dps_sthread.Sthread
module Net := Dps_net.Net
module Server := Dps_server.Server
module Variants := Dps_memcached.Variants
module Netload := Dps_workload.Netload

type config = {
  nnodes : int;  (** at least 2 *)
  npollers : int;  (** per node; also the node's DPS client count; positive *)
  buckets : int;  (** per node *)
  capacity : int;  (** per node *)
  probe_interval : int;  (** health-probe period, cycles; positive *)
  server : Server.config;  (** template; npollers/acceptor placement overridden *)
  net : Net.config;
      (** per-node network front-end template. Fleet-scale runs shrink
          [ring_lines] here: per-connection ring footprint is what bounds
          a >=250k-connection stage's memory, not the payload. When the
          server template asks for a front cache ([front_cache] > 0) the
          node backends are built with [~versions] = 4x[buckets] so the
          cache has a version table to validate against. *)
}

val default_config : config
(** 4 nodes x 8 pollers, 4096 buckets and 64k items per node, 25k-cycle
    probe, 512-connection / shed-at-24 server template, default net
    config. Fixed for every cluster: each node's backend is a
    self-healing {!Dps_memcached.Variants.dps_mc} with 4-poller
    localities and a delegation batch of 4, and the hash ring gives each
    node 64 virtual nodes ({!Ring.create}). *)

type node = {
  id : int;
  socket : int;
  net : Net.t;
  server : Server.t;
  backend : Variants.t;
  mutable up : bool;
  mutable died_at : int;  (** simulated time the probe declared it dead; -1 *)
}

type t

val create :
  Sthread.t -> ?on_set_applied:(node:int -> tag:int -> unit) -> config -> t
(** Build and start all nodes. [on_set_applied] fires inside the delegated
    closure each time a tagged set is applied by [node]'s backend — the
    server side of the exactly-once ledger ({!Dps_check.Eo}). Raises
    [Invalid_argument] when [nnodes] is below 2, [npollers] or
    [probe_interval] below 1, or the topology cannot host the requested
    nodes ([npollers] consecutive cores per node, nodes stacked
    round-robin over sockets). *)

val node : t -> int -> node
val node_count : t -> int
val nodes_up : t -> int
val node_dead : t -> int -> bool

val failover_log : t -> (int * int) list
(** [(node, declared-dead time)] pairs, oldest first. *)

val ring : t -> Ring.t

val on_node_down : t -> (int -> unit) -> unit
(** Register a callback fired (once per node) when the probe declares a
    node dead, after the ring has been replayed. *)

val start_probe : t -> unit
(** Start the periodic health probe (first sample one cycle from now). *)

val stop : t -> unit
(** Stop the probe and every node's server. *)

val schedule_kill : t -> Dps_faults.t -> node:int -> at:int -> unit
(** Crash the whole node at time [at] through the fault layer: every
    poller plus the acceptor dies. Victim tids are resolved at fire time
    (pollers learn their tid only once they run). *)

val populate : t -> keys:int array -> val_lines:int -> unit
(** Preload each key into its ring owner's backend. *)

val router : t -> Netload.router
(** The routing view handed to {!Netload.run_routed}: ring lookup,
    liveness, failover targets and the node-down subscription. Every
    connection to a node dials the NIC of the node's own socket. *)

val register_obs : t -> Dps_obs.Registry.t -> unit
(** Register per-node gauges (labelled [{node=<id>}]): cluster liveness,
    server counters, net counters and the backend's DPS health/watchdog
    gauges; plus a global [cluster.nodes_up]. *)
