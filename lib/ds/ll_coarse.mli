(** Sorted singly-linked list under one global MCS lock — the paper's [gl-m]
    baseline. *)

include Set_intf.SET
