(** Lazy concurrent list-based set (Heller et al., OPODIS'05) — the paper's
    [lb-l]: wait-free traversal, per-node locks, logical marking. *)

include Set_intf.SET
