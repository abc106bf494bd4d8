(** Sorted linked list protected by the RLU runtime — the paper's [rlu]
    list: store-free read sections, try-lock writers that pay a grace
    period. *)

include Set_intf.SET
