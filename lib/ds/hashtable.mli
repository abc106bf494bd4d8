(** Chained hash table with a spinlock per bucket — memcached's structure
    and a natural fit for DPS partitions.

    Implements {!Set_intf.SET}. All operations are charged against the
    simulated machine when called from a simulated thread and are free
    (single-threaded) otherwise. *)

type t

val name : string
val create : Dps_sthread.Alloc.t -> t
val insert : t -> key:int -> value:int -> bool
val remove : t -> int -> bool
val lookup : t -> int -> int option
val to_list : t -> (int * int) list
val check_invariants : t -> unit
val maintenance : t -> unit

val update : t -> key:int -> value:int -> bool
(** Overwrite an existing key's value; [false] if absent. *)
