(** Growable FIFO byte queue with O(1) amortized append/consume.

    Backs both connection receive buffers and the incremental wire-protocol
    decoder: bytes are appended at the tail as packets arrive and consumed
    from the head as frames parse, with random access into the unconsumed
    window for scanning. An empty queue holds no buffer unless it needed
    more than 256 B: an idle connection's queues cost only their records.
    A queue can also be told to discard the next bytes that reach it
    ({!skip}), so a decoder is one block: the queue itself. *)

type t

val create : unit -> t

val length : t -> int
(** Unconsumed bytes. *)

val push : t -> string -> unit
(** Append a chunk at the tail, less any bytes a {!skip} still discards. *)

val move : t -> into:t -> max:int -> int
(** [move q ~into ~max] consumes up to [max] bytes from the head of [q]
    and appends them at the tail of [into] as {!push} would, with no
    intermediate string. Returns the bytes consumed from [q]. [q] and
    [into] must be distinct queues. *)

val get : t -> int -> char
(** [get q i] is the [i]th unconsumed byte; [i] must be in [0, length). *)

val sub : t -> pos:int -> len:int -> string
(** Copy of unconsumed bytes [pos, pos+len). *)

val drop : t -> int -> unit
(** Consume [n] bytes from the head. *)

val skip : t -> int -> unit
(** [skip q n] discards the next [n] bytes through the queue: the buffered
    ones at once, the rest as they are pushed or moved in. *)

val clear : t -> unit
(** Drop every buffered byte and cancel any pending {!skip}. *)
