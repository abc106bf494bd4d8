(** §3.4 of the paper: structures whose operations need context across the
    whole data structure — stacks, queues, priority queues — run on DPS by
    *broadcasting* a peek to every partition, merging, and then directing
    the mutating operation at the chosen partition.

    All three adapters follow that recipe over the per-partition
    implementations in [dps_ds]. As the paper notes for range operations,
    the broadcast + act-on-winner pair is not linearizable: these are
    relaxed structures in the spirit of the quantitative-relaxation line of
    work the paper cites. *)

module Stack : sig
  type t = Dps_ds.Stack_treiber.t Dps.t

  val push : t -> int -> unit
  (** Push onto the caller's own partition (always local, as insertions
      carry no cross-partition constraint). *)

  val pop : t -> int option
  (** Broadcast-peek every partition's top timestamp, pop from the
      partition holding the *youngest* top (relaxed LIFO). *)

  val total_size : t -> int
  (** Cold: summed sizes over partitions. *)
end

module Queue : sig
  type t = Dps_ds.Queue_ms.t Dps.t

  val enqueue : t -> int -> unit
  (** Enqueue on the caller's own partition. *)

  val dequeue : t -> int option
  (** Broadcast-peek every partition's front timestamp, dequeue from the
      partition holding the *oldest* front (relaxed FIFO). *)

  val total_size : t -> int
end

module Pq : sig
  type t = Dps_ds.Pq_shavit.t Dps.t

  val insert : t -> key:int -> value:int -> bool
  (** Routed by key, as for any keyed structure. *)

  val find_min : t -> (int * int) option
  (** The paper's example: an aggregation function returning the smallest
      key among all localities' heads. *)

  val remove_min : t -> (int * int) option
  (** findMin broadcast, then removeMin on the winning partition. *)
end

module Events : sig
(** Event-driven integration of DPS's asynchronous execution — the
    extension §4.4 names as future work ("DPS with asynchronous execution
    can be easily integrated into an event-driven programming model").

    A client submits operations with completion callbacks and then runs
    its loop ({!drain_loop}): each turn, pending completions whose replies
    have arrived fire their callbacks, and the client serves its
    locality's delegations in the same turn — keeping the §4.3 peer
    property inside an event loop. *)

  type 'a t

  val create : 'a Dps.t -> 'a t
(** One loop per client thread; create after [Dps.attach]. *)

  val submit : 'a t -> key:int -> ('a -> int) -> (int -> unit) -> unit
(** Route the operation like [Dps.execute]; the callback fires from a later
    loop turn (the next one for local execution). *)

  val pending : 'a t -> int
(** Submitted operations whose callbacks have not fired yet. *)

  val drain_loop : 'a t -> unit
(** Run loop turns until no submissions are pending. A turn flushes any
    staged request batch, collects arrived completions, fires their
    callbacks and, when none fired, serves delegated requests. *)

end
