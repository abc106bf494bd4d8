(** Named counters for simulation statistics. *)

type t

val create : unit -> t
val incr : t -> string -> unit
val add : t -> string -> int -> unit

val counter : t -> string -> int ref
(** The live cell behind a name, created at 0 if absent. Per-event code
    resolves its names once and increments the cell, paying no string
    hashing per update; {!get} and {!to_list} read the same cell. *)

val get : t -> string -> int

val reset : t -> unit
(** Zero every counter. Cells obtained from {!counter} stay live. *)

val to_list : t -> (string * int) list
(** Nonzero counters, sorted by name. A counter created by {!counter} and
    never bumped does not appear. *)
