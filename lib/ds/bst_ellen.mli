(** Non-blocking external BST (Ellen et al., PODC'10) — stand-in for the
    paper's [lf-n]; see DESIGN.md. *)

include Set_intf.SET
