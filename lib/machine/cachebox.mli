(** A capacity-bounded set of cache-line addresses with O(1) random
    eviction — the container behind each private cache, TLB and LLC.

    Random replacement approximates LRU well enough to reproduce capacity
    misses (the property the paper's figures depend on) at a fraction of the
    bookkeeping cost. *)

type t

val max_capacity : int
(** The largest capacity a box takes (2{^20} − 1): an index cell packs the
    slot number into its low 20 bits. *)

val create : capacity:int -> Dps_simcore.Prng.t -> t
(** Raises [Invalid_argument] unless [1 <= capacity <= max_capacity]. *)

val capacity : t -> int
val size : t -> int

val mem : t -> int -> bool
(** For tests and [Machine.check_presence]; the access paths never call it.
    A probe of the address index once the box has one, a scan of the slots
    before. *)

val index_ok : t -> bool
(** Whether the address index, if built, holds exactly one entry per held
    address, naming that address's slot. For [Machine.check_presence]. *)

val add : t -> int -> int option
(** Insert an address the box does not hold; the caller knows it is absent
    (the machine's directory records presence), so [add] does not check,
    and adding a present address corrupts the box. If the box was full,
    returns [Some victim] — the evicted address (never the one just
    inserted). *)

val remove : t -> int -> unit
(** No-op if absent. The first [remove] builds the box's address index from
    its slots, in one pass; from then on every [add] and eviction keeps it.
    Boxes never removed from (TLBs; LLCs whose lines never leave their
    socket) never pay for one. The index does not affect which slot an
    address takes or which victim is drawn. *)
