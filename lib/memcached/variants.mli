(** The five memcached configurations compared in §5.3, behind one
    client-facing record so benchmarks and examples drive them identically. *)

type t = {
  name : string;
  attach : int -> unit;  (** call once per client thread, with its index *)
  get : int -> bool;
  set : key:int -> val_lines:int -> unit;
  set_tagged : (key:int -> val_lines:int -> tag:int -> unit) option;
      (** like [set] but carrying a client-chosen operation tag delivered
          to the variant's [on_set_applied] hook at the moment the write
          actually lands on the partition (under delegation: in the serving
          thread, possibly long after the issuer was acked). [None] for
          variants without apply tracking. Cluster mode uses this as the
          exactly-once ledger's apply record. *)
  del : int -> bool;  (** delete; [true] if the key was present *)
  finish : unit -> unit;  (** call when the client stops issuing *)
  populate : keys:int array -> val_lines:int -> unit;  (** cold pre-load *)
  client_hw : int -> int;  (** where to pin client [i] *)
  idle : (unit -> int) option;
      (** background duty for an idle client, if the variant has one: DPS
          clients must keep draining delegation rings even when they have
          no requests of their own (an event-loop poller otherwise blocks
          with peers' operations queued on its partition), and must flush
          any staged request batch of their own. Bounded work per call;
          returns the number of operations served so callers can adapt
          their polling (spin while busy, park when repeatedly empty). *)
  version_of : (int -> int) option;
      (** charged read of a key's current write-version — the validation
          side of a delegation-coherent front cache (see DESIGN.md §10).
          [None] unless the variant was built with [~versions] > 0. *)
  health : (unit -> Dps.health) option;
      (** watchdog snapshot for variants with a self-healing runtime (DPS):
          the cluster health probe reads this to detect node death without
          any gossip protocol *)
  register_obs : (labels:(string * string) list -> Dps_obs.Registry.t -> unit) option;
      (** publish the backend runtime's metrics (the [dps.*] family) under
          instance [labels] such as [("node", "2")], so several backends
          can share one registry without name collisions *)
}

val stock :
  Dps_sthread.Sthread.t -> nclients:int -> buckets:int -> capacity:int -> t
(** One shared instance; locked-LRU read path. *)

val parsec :
  Dps_sthread.Sthread.t -> nclients:int -> buckets:int -> capacity:int -> t
(** One shared instance; store-free (CLOCK) read path. *)

val ffwd_mc :
  Dps_sthread.Sthread.t -> nclients:int -> buckets:int -> capacity:int -> t
(** Everything delegated to a single ffwd server on hardware thread 0;
    clients are placed to avoid it. *)

val dps_mc :
  Dps_sthread.Sthread.t ->
  ?serving:Dps.serving ->
  ?batch:int ->
  ?batch_age:int ->
  ?versions:int ->
  ?placement:int array ->
  ?on_set_applied:(int -> unit) ->
  nclients:int ->
  locality_size:int ->
  buckets:int ->
  capacity:int ->
  unit ->
  t
(** Hash, LRU and slab all partitioned with DPS; sets delegated
    asynchronously, gets synchronously. [serving] (default [Owner]) is
    {!Dps.create}'s liveness policy, passed through unchanged; [batch] and
    [batch_age] (defaults 1 and 1500) pass through to {!Dps.create}'s
    request coalescing. [placement] overrides the default whole-machine
    client placement (cluster mode confines each node's backend to its own
    socket); [on_set_applied] receives the [set_tagged] tag when the write
    lands. [versions] > 0 (default 0) allocates a per-key version table of
    that many slots in {!Dps.create} and enables [version_of]; every
    applied set or successful delete bumps the key's version {e before}
    the [on_set_applied] hook fires, so an exactly-once ledger never
    records an apply whose front-cache entries are still fresh. *)

val dps_parsec :
  Dps_sthread.Sthread.t ->
  ?serving:Dps.serving ->
  ?batch:int ->
  ?batch_age:int ->
  ?versions:int ->
  ?placement:int array ->
  ?on_set_applied:(int -> unit) ->
  nclients:int ->
  locality_size:int ->
  buckets:int ->
  capacity:int ->
  unit ->
  t
(** DPS partitioning over the ParSec-style core; store-free gets run
    locally (§4.4 local execution), sets delegated asynchronously. *)
