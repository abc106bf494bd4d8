(** BST-TK-style lock-based external binary search tree (ASPLOS'15) — the
    structure DPS uses inside each locality for the bst experiments. *)

include Set_intf.SET
