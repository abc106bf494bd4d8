(** Chained hash table with a spinlock per bucket — memcached's structure
    and a natural fit for DPS partitions. *)

include Set_intf.SET

val update : t -> key:int -> value:int -> bool
(** Overwrite an existing key's value; [false] if absent. *)
