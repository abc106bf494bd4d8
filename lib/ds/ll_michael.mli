(** Michael's lock-free linked list (SPAA'02) — the paper's [lf-m]. *)

include Set_intf.SET

val failpoint_drop_cas_retry : bool ref
(** Test-only mutation for the lib/check self-test: when set, a failed
    insert CAS gives up instead of retrying (a lost-update bug the
    linearizability oracle must catch). Default [false]. *)
