(** Simulated threads on a deterministic discrete-event scheduler.

    Each simulated thread is an OCaml 5 fiber pinned to a hardware thread of
    the simulated {!Dps_machine.Machine.t}. Charged operations ({!work},
    {!read}, {!write}, {!rmw}) suspend the fiber and resume it once the
    simulated clock has advanced by the operation's cost, so fibers
    interleave at memory-access granularity — lock-free retry loops, CAS
    races and delegation hand-offs genuinely happen.

    The scheduler is driven by {!run}. Outside a simulated thread the
    charged operations ({!work} to {!flush}) do nothing, so library code
    runs the same insert/lookup/remove paths cold (setup, verification) and
    charged. The identity and blocking calls ({!self_hw}, {!self_id},
    {!self_prng}, {!time}, {!park}, {!park_for}, {!exit}) raise
    [Failure] there. *)

type t

exception Killed
(** Raised inside a thread terminated by {!exit} or {!kill}. Escapes no
    further than the scheduler: the thread is retired (hardware thread
    deactivated, exit hooks run) and the simulation continues. *)

type op_tag = Work_op | Access_op of Dps_machine.Machine.kind * int | Yield_op
(** What a suspension is for — lets fault hooks target specific operation
    classes (e.g. delay only memory accesses to some address range).
    Nothing suspends with [Yield_op] any more; the constructor stays only
    because [bench/perf]'s exhaustive match on the tag names it. *)

type fault = Crash | Stall of int
(** A fault decision for one scheduling point: [Crash] kills the thread at
    its next resumption; [Stall n] delays the resumption by [n] extra
    cycles (thread stall, interrupt, frequency dip, delayed memory). *)

val create : Dps_machine.Machine.t -> t
val machine : t -> Dps_machine.Machine.t

val spawn : t -> hw:int -> (unit -> unit) -> unit
(** Create a thread pinned to hardware thread [hw], runnable at the current
    simulated time. May be called from outside or inside the simulation. *)

val run : ?until:int -> t -> unit
(** Execute events in time order until the queue drains (all threads
    finished) or the next event lies past [until]. Re-entrant calls are not
    allowed. Exceptions raised by threads propagate. *)

val now : t -> int
(** Current simulated time in cycles (last dispatched event). *)

val live_threads : t -> int

(** {1 Thread lifecycle and fault injection} *)

val kill : t -> tid:int -> bool
(** Mark thread [tid] for death. The thread is destroyed at its next
    scheduling point: its continuation is discarded (via {!Killed}, so
    [Fun.protect] finalizers still run), the hardware thread is
    deactivated and exit hooks fire. Returns [false] if no live thread
    has that id. May be called from inside or outside the simulation. *)

val exit : unit -> 'a
(** Terminate the calling simulated thread immediately (raises {!Killed},
    which the scheduler absorbs). *)

val on_exit : t -> (int -> unit) -> unit
(** Register a hook called with the thread id whenever a simulated thread
    retires — normal return, {!exit}, or {!kill}. Hooks run in
    registration order, inside the dying thread's context, and must not
    perform charged operations. Runtimes use this to detect crashed
    clients and reassign their duties. *)

val set_fault_hook :
  t -> (tid:int -> now:int -> tag:op_tag -> cycles:int -> fault option) option -> unit
(** Install (or clear) the fault hook consulted at every scheduling point,
    before the suspension is enqueued: [cycles] is the charge about to be
    paid and [tag] what it pays for. Returning [Some Crash] kills the
    thread at that point; [Some (Stall d)] adds [d] cycles. The hook sees
    every charged operation of every thread, so a deterministic, seeded
    plan (see [Dps_faults]) yields bit-identical chaos replays. *)

(** {1 Concurrency-checking hooks (lib/check)} *)

val set_sched_hook : t -> (tid:int -> now:int -> tag:op_tag -> cycles:int -> int) option -> unit
(** Install (or clear) the schedule-exploration hook. Like the fault hook
    it is consulted at every scheduling point, but it only perturbs timing:
    the returned value (clamped at 0) is added to the suspension's charge,
    forcing a preemption — other runnable threads proceed first. A seeded
    hook therefore drives one deterministic member of the schedule space;
    see [Dps_check.Schedule]. Composes with the fault hook (delays add). *)

type access_class = Load | Racy_load | Store | Release_store | Atomic
(** How a charged access participates in the happens-before model consumed
    by the race detector. Costs are identical to the plain kinds; only the
    emitted trace event differs. [Racy_load] marks a read that is racy by
    design (optimistic traversals that re-validate); [Release_store] is a
    publishing store (lock release, ring-slot hand-off); [Atomic] is every
    read-modify-write. *)

type trace_ev =
  | T_access of { tid : int; cls : access_class; addr : int }
  | T_sync of { tid : int; acquire : bool; token : int }
      (** explicit happens-before edge on an abstract token
          ({!sync_acquire} / {!sync_release}) *)
  | T_spawn of { parent : int option; child : int }
  | T_unpark of { src : int option; dst : int }
  | T_wake of { tid : int }  (** a {!park} returned *)
  | T_retire of { tid : int }

val set_tracer : t -> (trace_ev -> unit) option -> unit
(** Install (or clear) the event tracer. Access events are emitted after
    the charge is paid — i.e. at the point the mutation the access stands
    for actually lands — so event order equals effect order. *)

(** {1 Operations of a simulated thread}

    The charged operations, {!work} to {!flush}, return at once without
    effect outside a simulated thread (cold setup, an {!at} callback).
    Inside one, all but {!charge_read}, {!charge_read_racy} and the
    uncharged {!sync_acquire}/{!sync_release} are scheduling points.

    The annotated variants carry intent for the happens-before race
    detector in [lib/check] (see DESIGN.md for the policy):
    {!read_racy}/{!charge_read_racy} mark reads that are racy by design and
    re-validated before use; {!write_release} marks a publishing store
    (lock release, ring-slot hand-off); {!rmw} is always acquire+release on
    its line. Charged costs are identical to the plain variants. *)

val in_sim : unit -> bool
(** Whether the caller is executing inside a simulated thread. Code that
    needs a thread's identity or clock ({!self_id}, {!time}) checks it to
    fall back to a cold default. *)

val self_hw : unit -> int
(** Hardware thread the calling fiber is pinned to. *)

val self_id : unit -> int
(** Dense per-scheduler thread index, in spawn order. *)

val self_prng : unit -> Dps_simcore.Prng.t
(** Deterministic per-thread random stream. *)

val time : unit -> int

val obs_span : ?args:(string * Dps_obs.Obs.arg) list -> string -> (unit -> 'a) -> 'a
(** Run [f] inside an observability span named [name] on the calling
    simulated thread (see {!Dps_obs.Obs}). Pure host-side bookkeeping: no
    charged access, no scheduling point, a single branch when
    observability is disabled — enabling it never perturbs the
    simulation. The span is closed even when [f] is unwound by a kill. *)

val work : int -> unit
(** Spend [n] compute cycles (dilated if the hyperthread sibling is active). *)

val read : int -> unit
(** Charged load of one cache line; a scheduling point. *)

val read_racy : int -> unit
(** Charged load annotated as racy by design — an optimistic read whose
    value is re-validated before use (optik version reads, lazy-list
    traversals, RLU reads). Costs exactly like {!read}; the race detector
    excuses it instead of reporting. *)

val write : int -> unit
(** Charged store; a scheduling point. *)

val write_release : int -> unit
(** Charged store with release semantics: publishes the writer's
    happens-before clock on the line, picked up by later loads of the same
    line (lock release, ring-slot hand-off). Costs exactly like {!write}. *)

val rmw : int -> unit
(** Charged atomic read-modify-write; a scheduling point. Acquire+release
    on the line in the happens-before model. *)

val sync_acquire : int -> unit
(** Uncharged happens-before annotation: acquire the clock last released on
    abstract token [tok] (for edges that no single charged line carries). *)

val sync_release : int -> unit
(** Uncharged counterpart of {!sync_acquire}: release the caller's clock on
    the token. *)

val access_pipelined : factor:int -> kind:Dps_machine.Machine.kind -> int -> unit
(** Charged access whose latency is divided by [factor] (at least one
    cycle): models memory-level parallelism when a thread streams many
    independent accesses — e.g. the ffwd server sweeping its request lines,
    which the paper credits for ffwd's batching advantage. The coherence
    state transition is applied in full; only the charged latency shrinks. *)

val charge_read : int -> unit
(** Account a load without suspending — used by long read-only traversals to
    batch up to a handful of hops per scheduling point. Pair with {!flush}. *)

val charge_read_racy : int -> unit
(** {!charge_read} annotated as racy by design, like {!read_racy}. *)

val flush : unit -> unit
(** Suspend for all cycles accumulated by {!charge_read} (no-op if none). *)

(** {1 Blocking and wakeups}

    Blocking I/O for the simulated network front-end: a thread that has
    nothing to do parks (releasing its hardware thread, so the hyperthread
    sibling runs undilated) until another thread — or a timer/event callback
    — unparks it. A wakeup permit makes the pair race-free: an {!unpark}
    that arrives while the target is still running is remembered, and the
    target's next {!park} returns immediately — no lost wakeups. *)

val park : unit -> unit
(** Block the calling thread until {!unpark} targets it. Returns without
    blocking (after consuming the permit) if an unpark already arrived.
    Batched {!charge_read} costs are settled before blocking. A parked
    thread can still be {!kill}ed; it dies at the wakeup point. *)

val park_for : int -> bool
(** Like {!park} but with a timeout of [d > 0] cycles: returns [true] if
    the timeout fired first, [false] if an {!unpark} (or pending permit)
    woke the thread sooner. The epoll-with-timeout of the simulated world —
    event-loop pollers use it to alternate blocking with bounded background
    serving (e.g. draining DPS delegation rings). The deadline saturates: a
    [d] that reaches past [max_int] never times out. *)

val unpark : t -> tid:int -> bool
(** Wake thread [tid]: resume it at the current simulated time if it is
    parked, otherwise leave a wakeup permit for its next {!park}. Returns
    [false] if no live thread has that id. Callable from inside the
    simulation, from outside, or from an {!at} callback. *)

val at : t -> time:int -> (unit -> unit) -> unit
(** Schedule [f] to run at simulated time [time] as a bare event — not a
    thread: it must not perform charged operations, but may {!spawn},
    {!unpark}, schedule further events, and mutate model state. This is
    how the network model runs link/DMA completions and client fleets
    without occupying simulated cores. *)

type sched = t

(** FIFO wait queues over {!park}/{!unpark} — condition-variable style
    blocking with deterministic wakeup order (first waiter in, first woken).
    A thread should block on at most one queue at a time, and only via
    {!Waitq.wait} (mixing direct {!unpark} with queued waits can spend a
    signal on a spuriously-permitted waiter). *)
module Waitq : sig
  type t

  val create : unit -> t
  val waiters : t -> int

  val wait : t -> unit
  (** Enqueue the caller and park. FIFO: signals wake waiters in arrival
      order. *)

  val signal : sched -> t -> bool
  (** Wake the oldest live waiter; [false] if none was waiting. *)

  val broadcast : sched -> t -> int
  (** Wake every current waiter; returns how many were woken. *)
end
