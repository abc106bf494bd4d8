(** Lock-free skip list — the paper's [lf-f]; also the substrate of the
    Shavit-Lotan priority queue. *)

include Set_intf.SET

(** {1 Priority-queue entry points (used by {!Pq_shavit})} *)

val peek_min : t -> (int * int) option
val remove_min : t -> (int * int) option
