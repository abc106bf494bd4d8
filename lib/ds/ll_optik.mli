(** Linked list built with the OPTIK pattern (PPoPP'16): optimistic
    traversal validated by per-node version locks. *)

include Set_intf.SET
