(** Growable FIFO byte queue with O(1) amortized append/consume.

    Backs both connection receive buffers and the incremental wire-protocol
    decoder: bytes are appended at the tail as packets arrive and consumed
    from the head as frames parse, with random access into the unconsumed
    window for scanning. An empty queue holds no buffer unless it needed
    more than 256 B: an idle connection's queues cost only their records. *)

type t

val create : unit -> t

val length : t -> int
(** Unconsumed bytes. *)

val push : t -> string -> unit
(** Append a chunk at the tail. *)

val get : t -> int -> char
(** [get q i] is the [i]th unconsumed byte; [i] must be in [0, length). *)

val sub : t -> pos:int -> len:int -> string
(** Copy of unconsumed bytes [pos, pos+len). *)

val drop : t -> int -> unit
(** Consume [n] bytes from the head. *)

val take : t -> max:int -> string
(** Consume and return up to [max] bytes from the head. *)

val clear : t -> unit
