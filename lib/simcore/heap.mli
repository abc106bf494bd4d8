(** Binary min-heap keyed by [(time, seq)], structure-of-arrays.

    It holds {!Calendar}'s events beyond its window, and [bench/perf]'s
    layer microbenchmark times it alone. Ties on [time] are broken by an
    insertion sequence number so the order is deterministic. The heap
    orders only int arrays (times, sequence numbers and slot indices);
    each payload sits at a stable slot of a separate pool from {!push}
    until it is taken, so sifting never moves a boxed value or pays the
    GC write barrier. A taken payload's slot is cleared: the heap keeps
    nothing alive that it has handed back. The [next_time]/[take] pair is
    the hot-loop API: neither allocates. *)

type 'a t

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:int -> 'a -> unit
(** Sequence numbers are assigned internally in push order. *)

val next_time : 'a t -> int
(** Time of the minimum entry, or [max_int] when empty. Never allocates. *)

val take : 'a t -> 'a
(** Remove and return the minimum entry's payload. Never allocates.
    Raises [Invalid_argument] on an empty heap — pair with {!next_time}. *)

val pop : 'a t -> (int * 'a) option
(** Pop the minimum [(time, payload)], or [None] if empty. *)
