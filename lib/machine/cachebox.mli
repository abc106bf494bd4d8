(** A capacity-bounded set of cache-line addresses with O(1) random
    eviction — the container behind each private cache and each LLC.

    Random replacement approximates LRU well enough to reproduce capacity
    misses (the property the paper's figures depend on) at a fraction of the
    bookkeeping cost. *)

type t

val create : capacity:int -> Dps_simcore.Prng.t -> t
val capacity : t -> int
val size : t -> int
val mem : t -> int -> bool
(** A hashed probe, for tests and [Machine.check_presence]; the access
    paths never call it. *)

val add : t -> int -> int option
(** Insert an address the box does not hold; the caller knows it is absent
    (the machine's directory records presence), so [add] does not check,
    and adding a present address corrupts the box. If the box was full,
    returns [Some victim] — the evicted address (never the one just
    inserted). *)

val remove : t -> int -> unit
(** No-op if absent. *)
