(** Deterministic token bucket: the one queueing primitive for every
    finite resource, in simulated cycles.

    One bucket stands for one resource — a node's DRAM service queue or
    memory controller, one direction of an interconnect link, one
    direction of a NIC link. Tokens are bytes; they refill lazily at
    [rate] bytes every [per] simulated cycles (capped at [burst]) and
    every transfer {!charge}s its bytes. A charge that overdraws the
    bucket is admitted but reports the queueing delay until the refill
    stream pays the debt back, so concurrent transfers through a
    saturated resource see monotonically growing delays — the saturation
    knee of the STREAM calibration figure ([bench/fig_stream]).

    The burst sets what kind of queue the bucket is. A burst of one
    transfer is a FIFO server: the delay is the wait before service
    starts (the DRAM service queue). A burst of 0 also charges the
    transfer's own service time, so [now + delay] is when it leaves the
    server (a link's serialization). A burst of many transfers is a
    bandwidth ceiling that lets short trains through un-queued.

    Purely arithmetic and allocation-free after {!create}; determinism
    follows from the simulated clock being the only time source. *)

type t

val create : rate:int -> per:int -> burst:int -> t
(** [create ~rate ~per ~burst] refills [rate] bytes every [per] cycles
    and starts full. [rate] and [per] must be positive and [burst]
    non-negative. A resource that is not modelled is represented by the
    {e absence} of a bucket (see [Costs.bw]), never by a bucket. *)

val charge : t -> now:int -> bytes:int -> int
(** [charge t ~now ~bytes] consumes [bytes] tokens at simulated time
    [now] (monotone across calls) and returns the queueing delay in
    cycles: 0 while tokens last, otherwise the time until the bucket
    refills back to zero debt. *)

val rate : t -> int
val burst : t -> int

val tokens : t -> int
(** Current token balance in bytes; negative while in debt. *)

val bytes : t -> int
(** Cumulative bytes charged. *)

val queue_cycles : t -> int
(** Cumulative queueing delay handed out. *)

val queue_events : t -> int
(** Number of charges that found the bucket empty. *)
