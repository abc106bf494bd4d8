(** Optimistic lock-based internal BST in the style of Bronson et al.
    (PPoPP'10) — the paper's [lb-b]; see DESIGN.md for the stand-in level.

    Its {!populate} rebuilds the tree perfectly balanced after inserting,
    standing in for the rebalancing the real algorithm performs
    continuously. *)

include Set_intf.SET
