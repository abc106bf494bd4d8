(** Lazy lock-based skip list (Herlihy et al., SIROCCO'07) — the paper's
    [lb-h]. *)

include Set_intf.SET
