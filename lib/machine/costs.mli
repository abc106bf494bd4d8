(** Cycle costs of the memory system.

    The defaults approximate the paper's Xeon E7-4850: cheap private-cache
    hits, a local-LLC hit an order of magnitude dearer, and cross-socket
    transfers / remote DRAM several times dearer again. The relative order
    (priv < llc < dram_local < llc_remote ~ dram_remote) is what produces
    the paper's scalability shapes. *)

type bw = {
  dram_cycles_per_line : int;  (** per-node DRAM service queue: cycles per line *)
  mc_bytes_per_cycle : int;  (** per-socket memory-controller rate *)
  link_bytes_per_cycle : int;  (** per interconnect link direction *)
  mc_burst : int;  (** memory-controller token capacity, bytes *)
  link_burst : int;  (** link token capacity, bytes *)
}
(** The machine's finite resources, each a [Bwbucket] per node or per
    link direction. A zero rate means the resource does not exist: no
    bucket is created and charging it is free. The DRAM service queue is
    a bucket with a one-line burst; fills from DRAM wait in it. A zero
    [mc_bytes_per_cycle] turns byte accounting off: no write-backs or DMA
    are charged and the machine charges exactly what it did before the
    bandwidth model existed. *)

type t = {
  priv_hit : int;  (** L1/L2 blend *)
  llc_hit : int;  (** local-socket LLC hit *)
  llc_remote : int;  (** cache-to-cache transfer from a remote socket *)
  dram_local : int;
  dram_remote : int;
  inval_local : int;  (** invalidating sharers confined to this socket *)
  inval_remote : int;  (** invalidating at least one remote-socket sharer *)
  rmw_extra : int;  (** added by atomic read-modify-writes *)
  walk_local : int;  (** TLB-miss page walk, page homed locally *)
  walk_remote : int;  (** page walk against a remote node's page tables *)
  bw : bw;  (** bandwidth ceilings; [bw_off] in {!default} *)
}

val default : t
(** Latency costs of the paper's machine, bandwidth modeling off. *)

val bw_off : bw
(** Bandwidth accounting off ([bw:0]) — the default: only the per-node
    DRAM service queue (one line every 6 cycles) is finite.
    Charge-for-charge identical to the pre-bandwidth-model machine. *)

val bw_default : bw
(** Ceilings calibrated by [bench/fig_stream]: 28 B/cycle per socket
    memory controller (56 GB/s at 2 GHz), 6 B/cycle per interconnect link
    direction (12 GB/s), bursts of a few KB. The controller bucket stands
    in for the DRAM service queue, which is off. *)

val bw_unlimited : bw
(** {!bw_off} plus byte counting: buckets so large every charge sees zero
    queueing delay, so charges are bit-identical to {!bw_off} while the
    byte counters run (the bytes-per-op A/B's configuration). *)
