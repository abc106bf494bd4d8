(** The simulated NUMA machine: cache hierarchy, coherence and cycle costs.

    Addresses are abstract cache-line numbers handed out by {!alloc}. Every
    simulated memory access goes through {!access}, which consults a
    MESI-style line directory plus per-core private caches and per-socket
    LLCs, charges a cycle cost, and updates the model. This is where all of
    the paper's mechanisms live: coherence invalidations caused by stores,
    capacity misses past LLC size, and the local/remote NUMA cost gap. *)

type kind = Read | Write | Rmw

type policy =
  | On_node of int  (** all lines homed on one NUMA node *)
  | Interleave  (** lines striped round-robin across nodes *)

type config = {
  topo : Topology.t;
  costs : Costs.t;
  priv_lines : int;  (** private (L1+L2) capacity per physical core, in lines *)
  llc_lines : int;  (** LLC capacity per socket, in lines *)
  tlb_entries : int;  (** TLB reach per core, in 4 KB (64-line) pages *)
}

val config_default : config
(** The paper's machine: 256 KB private per core, 24 MB LLC per socket,
    64 B lines — scaled only in the test topology. *)

val config_scaled : ?factor:int -> unit -> config
(** The default machine with both cache capacities divided by [factor]
    (default 16). Benchmarks shrink caches and working sets together so the
    capacity knees land at the same relative spot with less simulation work. *)

type t

val create : ?seed:int64 -> config -> t
val topology : t -> Topology.t
val config : t -> config

val alloc : t -> policy -> lines:int -> int
(** Allocate a region of [lines] cache lines; returns the base address.
    Line metadata is materialised lazily, so huge sparse regions are cheap.
    Raises [Invalid_argument] if [lines < 1] or the policy names a node
    outside the machine's sockets. *)

val access : t -> now:int -> thread:int -> addr:int -> kind:kind -> int
(** [access t ~now ~thread ~addr ~kind] performs one access by hardware
    thread [thread] at simulated time [now] and returns its cost in cycles.
    Write/RMW misses to the same line serialize (ownership moves between
    caches one transfer at a time), so a second writer arriving while a
    transfer is in flight additionally pays the queueing delay — the hot
    cache-line collapse of §2. Reads of a shared line serve in parallel. *)

val check_presence : t -> (unit, string) result
(** The presence invariant the access paths rely on, checked against the
    cache boxes: for every allocated line, core [c]'s private cache holds it
    exactly when the directory has [c] as its owner or a sharer, and socket
    [s]'s LLC exactly when the line's socket mask has bit [s]; for every
    page, core [c]'s TLB holds it exactly when the page's core mask has bit
    [c]. [Error] names the first disagreement. For tests: it probes every
    box for every allocated address. *)

val access_mlp : t -> now:int -> thread:int -> addr:int -> kind:kind -> factor:int -> int
(** Pipelined access for streaming code: like {!access} but the latency
    portion of the cost divides by [factor] (memory-level parallelism
    hides latency behind outstanding requests) while any bandwidth
    queueing delay does not — overlap cannot create bytes-per-cycle.
    The DRAM service queue's wait is latency and pipelines. With byte
    accounting off this is exactly [max 1 (access ... / factor)]. *)

val bw_charge_dma : t -> now:int -> socket:int -> bytes:int -> int
(** Charge NIC DDIO DMA traffic against [socket]'s memory-controller
    bucket; returns the queueing delay in cycles. 0, with no accounting,
    when byte accounting is off. *)

val bw_enabled : t -> bool
(** Whether the config's {!Costs.bw} gave the memory controllers buckets
    (byte accounting on). The DRAM service queue is a bucket too, but it
    exists in every configuration with a nonzero
    [Costs.dram_cycles_per_line], byte accounting or not. *)

type bw_snapshot = {
  mc_bytes : int array;  (** bytes charged per socket memory controller *)
  mc_queue_cycles : int array;  (** queueing delay accumulated per socket *)
  link_bytes : int array array;  (** [link_bytes.(src).(dst)]; diagonal 0 *)
  link_queue_cycles : int array array;
  writebacks : int;  (** dirty LLC evictions streamed back to DRAM *)
}

val bw_snapshot : t -> bw_snapshot option
(** Point-in-time bandwidth accounting; [None] when modeling is off. *)

val interconnect_bytes : t -> int
(** Total bytes charged across every interconnect link direction — the
    delegation-vs-ffwd A/B's bytes/op numerator. 0 when modeling is off. *)

val work_cost : t -> thread:int -> int -> int
(** Compute-cycle cost adjusted for hyperthread sharing: if the sibling
    hardware thread is active the pipeline is shared and the cost dilates. *)

val set_active : t -> thread:int -> bool -> unit
val home_of : t -> int -> int
(** NUMA node a line is homed on (for tests). *)

val stats : t -> Dps_simcore.Stats.t
(** Counters: ["accesses"], ["priv_hits"], ["llc_hits"], ["llc_misses"]
    (served by DRAM or another socket), ["remote_misses"] (cross-socket
    only), ["invalidations"], ["dram_queueing"] (fills that waited in the
    DRAM service queue), ["write_queueing"]; with byte accounting on, also
    ["bw_mc_queueing"], ["bw_link_queueing"], ["bw_writebacks"] and
    ["bw_dma_bytes"]. *)

val cycles_to_seconds : t -> int -> float

val register_obs : t -> Dps_obs.Registry.t -> unit
(** Publish the {!stats} counters as sampled gauges named
    [machine.<counter>] in an observability registry. With bandwidth
    modeling on, also publishes per-socket memory-controller gauges
    ([machine.bw_mc_bytes{socket=s}], [machine.bw_mc_queue_cycles{socket=s}],
    [machine.bw_mc_occupancy{socket=s}]) and per-link gauges
    ([machine.bw_link_bytes{src=a,dst=b}],
    [machine.bw_link_queue_cycles{src=a,dst=b}]). *)
