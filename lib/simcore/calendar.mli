(** Monotone event queue: a calendar of one-cycle buckets over a sliding
    window, with a {!Heap} behind it for events beyond the window.

    This is the simulator's event queue. It serves the scheduler's case:
    events are never pushed before the time last taken, and most are pushed
    a few cycles ahead of it. Such an event lands in the FIFO bucket of its
    own cycle, so {!push} and {!take} cost O(1) instead of O(log n) sift
    levels. An event at least [W] cycles ahead waits in an overflow {!Heap}
    until the window reaches it.

    Entries come out in exactly {!Heap}'s order: by time, ties in push
    order. Payloads sit at stable slots of a pool, so no list operation
    moves a boxed value or pays the GC write barrier, and a taken payload's
    slot is cleared: the queue keeps nothing alive that it has handed back.
    The [next_time]/[take] pair is the hot-loop API: neither allocates. *)

type 'a t

val window : int
(** [W], the number of one-cycle buckets (4096). *)

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:int -> 'a -> unit
(** Raises [Invalid_argument] when [time] is before the time of the last
    {!take} (0 before the first). Pushing at exactly that time is allowed. *)

val next_time : 'a t -> int
(** Time of the minimum entry, or [max_int] when empty. Only looks: the last
    taken time, which bounds {!push}, does not move. Never allocates. *)

val take : 'a t -> 'a
(** Remove and return the minimum entry's payload; its time becomes the
    bound for later pushes. Never allocates. Raises [Invalid_argument] on an
    empty queue — pair with {!next_time}. *)
