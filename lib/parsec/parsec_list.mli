(** The ParSec sorted linked list of §5.2: wait-free reads inside ParSec
    quiescence sections, writers serialized by a single MCS lock, unlinked
    nodes reclaimed only after a grace period. This is the list the paper
    integrates with DPS for the Figure 10 experiments. *)

include Dps_ds.Set_intf.SET
