(** Lock-free internal BST with logical deletion — stand-in for the
    paper's [lf-h]; see DESIGN.md. *)

include Set_intf.SET
