(** Consistent-hash ring with virtual nodes.

    Each node contributes 64 virtual points on a hash circle; a key belongs
    to the first point clockwise from its hash. Removing a dead node
    deletes only its points, so exactly its keys remap — spread over the
    survivors — while every other key keeps its owner. Hashing is a fixed
    avalanche mixer with no seed: the layout is identical on every run,
    which keeps cluster scenarios bit-for-bit replayable. *)

type t

val create : nnodes:int -> t
(** Nodes [0 .. nnodes-1], 64 points each. Raises [Invalid_argument]
    when [nnodes] is not positive. *)

val lookup : t -> int -> int
(** The live node owning this key. *)

val successor : t -> int -> int
(** A deterministic representative of the nodes that inherit [node]'s
    keys if it is removed — the retry target while the ring replay is
    still pending. Returns [node] itself only when it is the sole live
    node. *)

val remove : t -> int -> unit
(** Delete a node's points (idempotent). Raises [Invalid_argument] when
    asked to remove the last live node. *)

val add : t -> int -> unit
(** (Re-)insert a node's points (idempotent): exactly the keys hashing
    onto the new points move to [node]; every other key keeps its owner.
    [add] after [remove] of the same node restores the identical layout —
    point positions depend only on the node id. Raises [Invalid_argument]
    on a negative id. *)

val nodes : t -> int list
(** Live node ids, ascending. *)

val size : t -> int
val is_live : t -> int -> bool

val hash_key : int -> int
(** The key-side hash, exposed for tests. *)
