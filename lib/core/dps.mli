(** Distributed, Delegated Parallel Sections (DPS) — the paper's runtime.

    DPS partitions a data structure's key namespace across localities
    (groups of hardware threads sharing a socket), binds one partition of
    the structure to each locality's NUMA memory, and moves *computation*
    to the partition that owns the key: local keys run as plain function
    calls, remote keys are delegated over per-(client, partition) message
    rings of single cache-line messages. Every client is also a peer
    server — while it waits for its own completions (or has nothing else to
    do) it executes operations that other localities delegated to it, so no
    core is ever dedicated to serving (§3–§4 of the paper).

    ['a] is the per-partition slice of the user's data structure; DPS never
    synchronizes access to it — within a locality the user supplies a
    concurrent implementation, exactly as in the paper. *)

type 'a t

val failpoint_skip_completion_fence : bool ref
(** Test-only mutation for the lib/check self-test: when set, the server's
    completion publish is a plain store instead of a releasing one, so the
    race detector must flag the reply hand-off. Default [false]. *)

val failpoint_drop_batch_flush : bool ref
(** Test-only mutation for the lib/check self-test: when set, flushing a
    staged batch silently drops its last asynchronous operation, so the
    checker's accounting oracle must catch the lost update. Default
    [false]. *)

val failpoint_stuck_transition : bool ref
(** Test-only mutation for the lib/check self-test: when set, a mode
    transition's drain phase abandons the partition's in-flight ring slots
    instead of serving them (awaited entries are declared lost,
    fire-and-forget entries vanish), so the checker's accounting oracle
    must catch the lost updates. Default [false]. *)

type partition_info = {
  pid : int;  (** partition index *)
  node : int;  (** NUMA node the partition is bound to *)
  alloc : Dps_sthread.Alloc.t;  (** allocator homing cold data on [node] *)
}

(** Who may serve a ring, and when: the liveness policy.

    [Owner] (the default) is §4.3: only the owning peer serves a ring, and
    rings carry no lock. [Shared] gives every ring a lock, so {!run_poller}
    threads (§4.4), stalled senders and direct-mode holders may serve it
    too:
    - [heal_after = Some n]: a sender whose delegation stalls longer than
      [n] cycles serves the target partition's whole ring set itself —
      taking over a dead peer's share, breaking locks abandoned by crashed
      holders — and re-issues operations lost with a crashed server; a ring
      wedged full past [n] cycles is drained the same way.
    - [adaptive = Some m] arms per-partition mode switching and starts every
      partition in mode [m]: remote issues re-read a mode word, and
      {!set_mode} migrates a partition online between delegated mode (the
      rings) and {e direct} mode, where remote clients serialize on a CNA
      lock ({!Dps_sync.Cna}) instead. [Some `Direct] with no controller is
      the static direct-locking baseline; [None] allocates and charges no
      mode state.

    {!self_healing} is [Shared { heal_after = Some 50_000; adaptive = None }]
    and {!pollers} is [Shared { heal_after = None; adaptive = None }]. Under
    every policy, exiting or crashed clients hand their serving share to a
    live peer, and a partition whose last member dies is failed over onto
    live partitions with {!rebalance}'s relaxed contract. *)
type serving =
  | Owner
  | Shared of { heal_after : int option; adaptive : [ `Delegated | `Direct ] option }

val self_healing : serving
val pollers : serving

val create :
  Dps_sthread.Sthread.t ->
  nclients:int ->
  locality_size:int ->
  hash:(int -> int) ->
  ?ring_slots:int ->
  ?check_budget:int ->
  ?serving:serving ->
  ?batch:int ->
  ?batch_age:int ->
  ?versions:int ->
  ?placement:int array ->
  mk_data:(partition_info -> 'a) ->
  unit ->
  'a t
(** [create sched ~nclients ~locality_size ~hash ~mk_data ()] builds a DPS
    instance for [nclients] client threads placed by the paper's rule and
    grouped into localities of [locality_size] hardware threads. One
    partition is created per locality via [mk_data]; [hash] maps keys into
    the flat namespace of 64 buckets per partition, each bucket owned by a
    partition — the paper's [create(ds_init_fn, ds_args, partition_cnt,
    ns_sz, hash_fn)] with [ns_sz] fixed at 64 × [partition_cnt].
    [ring_slots] sizes each message ring (default 16); [check_budget] is
    the §4.3 knob: how many delegated requests a thread serves per check of
    its own pending completion (default 4). Each delegation charges fixed
    runtime work: 100 cycles of sender-side marshalling and 250 of
    server-side dispatch (local calls pay a quarter of the dispatch,
    matching the §5.2 remark about interposition overhead on local
    operations) — calibration constants documented in EXPERIMENTS.md.
    [serving] (default [Owner]) is the liveness policy, see {!serving}.

    Configurations that could never make progress raise
    [Invalid_argument]: [ring_slots < 1], [check_budget < 1] (peers would
    never serve), [versions < 0] and [heal_after < 1].

    [batch] (default 1, clamped to 7 — the descriptors must share the
    message cache line with the header) turns on sender-side coalescing:
    operations bound for one remote partition accumulate in a staging line
    on the sender's socket and cross the interconnect as one multi-op
    message, acked by a single releasing store. A batch publishes when it
    fills or when its oldest operation is [batch_age] cycles old (default
    1500) — and always before the sender blocks on one of its own staged
    operations, at {!client_done}/{!detach}/{!drain}, or explicitly via
    {!flush_pending} — so coalescing bounds, never breaks, latency and
    ordering. With [batch = 1] the protocol is byte-identical to the
    unbatched one-op-per-line scheme.

    [versions] (default 0) allocates a global table of that many per-key
    version slots (8 per charged line, interleaved across the machine's
    nodes like the namespace table). Writers call {!bump_version} from
    inside their apply closures; read-side caches validate entries with
    {!read_version}. With [versions = 0] nothing is allocated and the
    address layout stays bit-identical. *)

val npartitions : 'a t -> int

val partition_of_key : 'a t -> int -> int
(** Charged namespace lookup: hash, bucket, owning partition. *)

val bucket_of_key : 'a t -> int -> int
val bucket_owner : 'a t -> bucket:int -> int

(** {1 Per-key versions (requires [~versions] > 0 at {!create})} *)

val versioned : 'a t -> bool
(** [true] when the instance carries a version table. *)

val bump_version : 'a t -> key:int -> unit
(** Increment [key]'s version slot with a charged releasing store. Call
    from inside the closure that applies a write, so the charge lands on
    whichever thread actually serves it (the owning partition's server
    under delegation, the CNA holder in direct mode) and the bump is
    ordered after the write it publishes. Monotonic, so the duplicate bump
    of an exactly-once re-issue is benign. Slots are keyed by a second hash
    mix; a collision only over-invalidates. No-op when versions are off. *)

val read_version : 'a t -> key:int -> int
(** Current version of [key]'s slot — one charged racy-by-design read
    (excluded from the race detector; see DESIGN.md §10: a reader that
    caches a value with a version observed {e before} fetching it can only
    err toward a false invalidation). [0] when versions are off. *)

val rebalance :
  'a t ->
  bucket:int ->
  to_:int ->
  extract:('a -> int -> (int * int) list) ->
  insert:('a -> key:int -> value:int -> unit) ->
  unit
(** Dynamic repartitioning (§3.3 notes the paper's prototype is static):
    move one namespace bucket to partition [to_]. [extract] must remove and
    return the bucket's (key, value) pairs from the old owner's structure;
    [insert] adds one pair to the new owner's. Must be called from an
    attached client. Relaxed: operations racing the move may briefly see
    the bucket's keys as absent (same contract as range operations). *)

val partition_data : 'a t -> int -> 'a

val client_hw : 'a t -> int -> int
(** Hardware thread that client [i] must be spawned on. *)

val attach : 'a t -> client:int -> unit
(** Bind the calling simulated thread to client slot [client] (in
    [0, nclients)). Must be called once, before any operation; a second
    attach from the same thread fails ([Failure "Dps: thread already
    attached"]). Re-attaching a slot abandoned via {!detach} (e.g. a
    respawned replacement thread) is supported under a [Shared] serving
    policy, whose ring locks serialize the duplicate servers. *)

val detach : 'a t -> unit
(** Unbind the calling thread from its client slot, handing its serving
    share to a live peer of its locality so no ring is orphaned. Does not
    count as {!client_done} — call that first if this client is done
    issuing for good. *)

(** {1 Operations (from attached client threads)} *)

type completion

val execute : 'a t -> key:int -> ('a -> int) -> completion
(** Route an operation to [key]'s partition: run it immediately if the
    partition is local, otherwise delegate it. While waiting for a free
    ring slot the client serves requests delegated to its own partition. *)

val try_await : 'a t -> completion -> int option
(** Non-blocking check of a completion record (the paper's
    [await_completion]); serves one batch of delegated requests when the
    result is not yet available. Under a healing policy a polling loop
    escalates like {!await}: [heal_after] cycles after the first check, a
    check that served nothing takes over the target partition's rings. *)

val await : 'a t -> completion -> int
(** Spin on {!try_await} until the result arrives. *)

val call : 'a t -> key:int -> ('a -> int) -> int
(** Synchronous convenience: [execute] then [await]. *)

val execute_async : 'a t -> key:int -> ('a -> int) -> unit
(** §4.4 asynchronous execution: deliver and return immediately. Replies
    are discarded. Ordering with later dependent operations must be
    enforced by the caller (issue a synchronous barrier operation). *)

val execute_local : 'a t -> key:int -> ('a -> int) -> int
(** §4.4 local execution: run the operation on the calling core even if the
    partition is remote (remote memory traffic is paid instead of
    delegation). Only safe for operations the underlying structure already
    synchronizes — typically reads. *)

val range : 'a t -> ('a -> int) -> merge:(int -> int -> int) -> int
(** §4.4 range/broadcast operation: run the closure on every partition
    (local call or delegation) and fold the results with [merge]. Not
    linearizable, as in the paper. *)

val serve : 'a t -> max:int -> int
(** Serve up to [max] requests pending on the caller's partition rings;
    returns the number served ([max] is approximate — a batch is never
    split). Also publishes any of the caller's staged batches that have
    aged out. Never blocks: for loops that serve between their own work
    (§4.4 liveness); a loop with nothing else to do uses {!poll}. *)

val poll : 'a t -> max:int -> int
(** The idle duty of a client with nothing else to do, such as a server
    poller with no readable connection: publish its staged batches, then
    run the idle loop over its share of the rings. The loop serves up to
    [max] requests and returns the number served. When the share holds
    nothing, it parks with no timer until a publish into one of its rings
    rings the doorbell, an adoption hands it more rings, the last client
    stops issuing, or anything else unparks the thread; then it returns
    0. The probe, the registration and the park share one atomic block,
    and a publisher rings after its releasing store, so no wakeup is lost.
    When the scan served nothing but the probe saw a published batch, the
    lock of any share ring whose holder died inside it is broken and the
    share is scanned again, so a server that crashed mid-dispatch does not
    wedge the loop. *)

val flush_pending : 'a t -> unit
(** Publish every batch the calling client still has staged, regardless of
    age. A no-op when the instance was created with [batch = 1] (or
    nothing is staged). *)

val my_partition : 'a t -> int
(** The calling client's own partition. *)

val call_on : 'a t -> pid:int -> ('a -> int) -> int
(** Like {!call}, but targeting a partition directly (used by broadcast
    patterns that pick a partition from peeked state, e.g. §3.4 stacks and
    queues). *)

val run_poller : 'a t -> pid:int -> unit
(** §4.4 liveness: body for a dedicated polling thread devoted to locality
    [pid]. Runs {!poll}'s idle loop, with every ring of the partition as
    its share and no budget (serializing with peers through the per-ring
    locks), until all clients are done. Raises [Invalid_argument] under
    the [Owner] serving policy. *)

val client_done : 'a t -> unit
(** Signal that this client has finished issuing operations. *)

val drain : 'a t -> unit
(** Keep serving delegated requests until every client is done — call after
    {!client_done} so in-flight delegations to this locality still make
    progress. Its final sweep first breaks the lock of any ring of the
    caller's share whose holder died inside it, so a batch a crashed
    server left half-dispatched still runs. *)

val delegated_ops : 'a t -> int
val local_ops : 'a t -> int

val batch_flushes : 'a t -> int
(** Number of batched messages published so far; [delegated_ops /
    batch_flushes] is the achieved coalescing factor. Always 0 with
    [batch = 1] (the unbatched path does not count). *)

(** {1 Adaptive delegation (requires [Shared { adaptive = Some _; _ }])} *)

(** Per-partition access mode. [Draining] is the transition window of a
    [Delegated -> Direct] flip: clients already route direct while the
    controller retires the published ring backlog. *)
type mode = Delegated | Draining | Direct

val mode : 'a t -> pid:int -> mode
(** Current mode of partition [pid] (host-side; charges nothing). Always
    [Delegated] when the instance is not adaptive. *)

val set_mode : 'a t -> pid:int -> [ `Delegated | `Direct ] -> unit
(** Migrate partition [pid] online. Single-writer: only one thread (the
    controller) may call this, though any simulated thread will do.
    [`Direct] first marks the partition [Draining] — remote issues that
    re-read the mode word switch to the CNA path immediately — then
    serves every published delegation out of the rings before completing
    the flip, so exactly-once survives and no ring entry is stranded
    (batches still staged on a sender's socket publish later and are
    drained by the next direct holder, an awaiting sender, or {!drain}).
    [`Delegated] flips back without draining: direct holders finish under
    the lock while new work queues in the rings again. No-op when the
    partition is already in the requested mode; raises [Invalid_argument]
    unless the serving policy has [adaptive = Some _]. *)

type signal = {
  s_mode : mode;
  s_pending : int;  (** delegations queued in the rings right now *)
  s_remote_ops : int;  (** remote ops issued at this partition, cumulative *)
  s_lat_sum : int;  (** summed issue->done latency, cumulative *)
  s_lat_cnt : int;  (** remote completions measured, cumulative *)
}

val signals : 'a t -> pid:int -> signal
(** Controller inputs for partition [pid], sampled host-side (charges
    nothing, like {!health}); cumulative fields are meant to be diffed
    across controller epochs. *)

val active : 'a t -> bool
(** [true] while any client is still issuing — the controller's loop
    condition. *)

val direct_ops : 'a t -> int
(** Operations run via the direct CNA path (all partitions). *)

val mode_flips : 'a t -> int * int
(** [(to_direct, to_delegated)] completed transitions. *)

(** {1 Watchdog and self-healing report} *)

type health = {
  pending_depth : int array;  (** per partition: delegations queued, unserved *)
  dead_partitions : bool array;
  takeovers : int;  (** foreign serves of a stuck partition's rings *)
  adoptions : int;  (** serving shares handed to a live peer *)
  retries : int;  (** operations re-issued after loss *)
  failovers : int;  (** partitions retired and retargeted *)
  crashes : int;  (** clients that vanished without [client_done] *)
  lock_breaks : int;  (** ring locks reclaimed from dead holders *)
}

val health : 'a t -> health
(** Snapshot of the runtime's liveness counters — per-partition pending
    depth and dead flags plus the cumulative self-healing event counts.
    Deterministic: the same seed and fault plan reproduce identical
    values. Callable from inside or outside the simulation; charges
    nothing. *)

val register_obs : ?labels:(string * string) list -> 'a t -> Dps_obs.Registry.t -> unit
(** Publish the runtime's counters into an observability registry:
    cumulative totals as [dps.<counter>] plus per-partition
    [dps.pending_depth] / [dps.time_since_served] / [dps.dead] /
    [dps.takeovers_p] / [dps.lock_breaks_p] gauges labelled
    [{partition,socket}]: the counters {!health} snapshots, plus each
    partition's staleness and healing tallies. [labels] (e.g.
    [("node", "2")]) prefix every metric's label set so several runtimes
    can share a registry. *)
