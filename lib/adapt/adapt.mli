(** Adaptive delegation controller.

    A controller thread that samples per-partition signals from a DPS
    instance whose serving policy has [adaptive = Some _] — ring queue
    depth, remote traffic, issue->done latency, and the profiler's
    coherence-stall share — once per epoch, applies a hysteresis policy, and migrates
    individual partitions between delegated mode (the DPS ring protocol)
    and direct mode (remote clients serialize on the partition's CNA
    lock) via [Dps.set_mode]'s online drain protocol. The trade the
    paper freezes at create time — delegation wins under contention,
    direct access wins when a partition is cool — made dynamic, as
    SmartPQ does for NUMA priority queues (see PAPERS.md). *)

type policy = {
  epoch : int;  (** cycles between controller samples *)
  warmup_epochs : int;  (** epochs observed before the first decision *)
  hot_ops : int;  (** remote ops/epoch at or above which an epoch votes hot *)
  cool_ops : int;  (** remote ops/epoch at or below which an epoch votes cool *)
  depth_hot : int;  (** ring backlog that makes an epoch hot outright *)
  lat_hot : int;
      (** direct-mode issue->done latency (cycles) that votes hot — a lock
          convoy direct mode cannot see in its op counts *)
  stall_hot : float;  (** coherence-stall share that votes hot under traffic *)
  hot_epochs : int;  (** consecutive hot epochs before direct -> delegated *)
  cool_epochs : int;  (** consecutive cool epochs before delegated -> direct *)
}

val default_policy : policy

val run : ?policy:policy -> 'a Dps.t -> unit
(** Controller thread body: sample, decide, migrate, until the instance's
    clients are all done ([Dps.active] turns false). Spawn it on a spare
    hardware thread; it is the single [Dps.set_mode] writer. An epoch with
    traffic at or above [hot_ops] (or a backlog, latency, or stall signal
    crossing its threshold) votes hot, one at or below [cool_ops] votes
    cool, anything between holds the current mode; [hot_epochs] /
    [cool_epochs] consecutive votes flip the partition. The stall signal
    is the stalled fraction of the direct path's self cycles, read from
    the profiler's [dps.direct] phase (0.0 when profiling is off). *)
