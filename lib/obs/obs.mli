(** Unified observability: span tracing and a simulated-cycle profiler.

    A single global collector (the simulator runs one scheduler at a time
    on one OS thread, so a singleton matches the execution model — the
    same pattern the scheduler itself uses for its current-thread slot).
    Instrumentation points throughout the stack call into this module
    {e only when enabled}, guarded by {!on}; when disabled every probe is
    a single load-and-branch and nothing is recorded.

    {b Invariant — observation never perturbs the simulation.} No call in
    this interface charges simulated cycles, performs a charged access, or
    touches scheduler state. Timestamps and cycle counts are read from the
    caller ([~now], [~cycles]); identifiers are drawn from a dedicated
    counter that advances only while tracing is enabled. Consequently a
    run produces bit-identical simulated results with observability
    disabled or enabled (enforced by [test/test_obs.ml]).

    {2 Span model}

    - {b Sync spans} ({!span_begin}/{!span_end}) nest per simulated thread
      and render as the classic flamegraph stack in Perfetto. They carry
      the profiler: charged cycles are attributed to the innermost open
      span of the charging thread ({i self}) and to every enclosing span
      ({i total}).
    - {b Async spans} ({!async_begin}/{!async_step}/{!async_end}) follow
      one logical operation across threads — a delegation from issue on
      the client, through ring residency, to dispatch on the executor and
      completion pickup.
    - {b Instants} ({!instant}) mark points (faults, takeovers, flushes,
      packet deliveries); {!complete} records a closed interval whose
      duration is known up front (e.g. an injected stall).

    {2 Cycle attribution}

    Every charged access reports its cost via {!charged}, split into
    classes: [`Work] (pure compute), [`Mem] (memory-system cycles). The
    portion of a memory access spent on {e coherence stalls} — write
    serialization against a line's publish window plus DRAM queueing — is
    reported separately by the machine model through {!note_stall} and
    subtracted out of [`Mem] into its own column. Park time (a thread
    blocked with no cycles charged) is measured wall-clock between
    {!park_begin}/{!park_end} and attributed to the span that parked. *)

type arg = A_int of int | A_str of string | A_float of float
(** Argument payload attached to trace events (rendered in the Perfetto
    "Arguments" pane). *)

(** {1 Enable / disable} *)

val start : ?tracing:bool -> ?profiling:bool -> unit -> unit
(** Reset all collected state and enable collection. [tracing] records
    trace events; [profiling] aggregates cycle attribution; both default
    to [true]. *)

val stop : unit -> unit
(** Disable collection. Collected data stays available for export. *)

val reset : unit -> unit
(** Drop all collected data and re-arm the id counter. *)

val on : unit -> bool
(** True when tracing or profiling is enabled — the cheap guard
    instrumentation points check before doing any work. *)

val tracing_on : unit -> bool
val profiling_on : unit -> bool

(** {1 Trace events}

    Emitters record events only when {!tracing_on}; {!span_begin} and
    {!span_end} additionally maintain the per-thread span stack whenever
    {!on}, because the profiler attributes cycles to the innermost open
    span. [~now] is the caller's simulated clock; [~tid] its simulated
    thread id (probes in event context that have no thread use a
    pseudo-tid, see {!pseudo_tid}). *)

val span_begin : tid:int -> now:int -> ?cat:string -> ?args:(string * arg) list -> string -> unit

val span_end : tid:int -> now:int -> unit
(** Close the innermost open span of [tid]. Closing with no span open is
    recorded as a validation error (see {!validate}). *)

val instant : tid:int -> now:int -> ?cat:string -> ?args:(string * arg) list -> string -> unit

val complete :
  tid:int -> now:int -> dur:int -> ?cat:string -> ?args:(string * arg) list -> string -> unit
(** A closed [now, now+dur) interval emitted as one event. *)

val next_id : unit -> int
(** Fresh async-span id (deterministic: a counter reset by {!reset}).
    Returns [0] when tracing is disabled; emitters ignore id [0], so
    callers may store and replay it unguarded. *)

val async_begin : id:int -> now:int -> ?cat:string -> ?args:(string * arg) list -> string -> unit
val async_step : id:int -> now:int -> ?cat:string -> string -> unit
val async_end : id:int -> now:int -> ?cat:string -> string -> unit

val thread_name : tid:int -> string -> unit
(** Name [tid]'s row in the Perfetto timeline (metadata event). *)

val pseudo_tid : kind:int -> int -> int
(** Stable synthetic tid for event-context probes with no simulated
    thread (e.g. NIC [kind] rows indexed by socket). Pseudo-tids live far
    above real tids so rows never collide. *)

(** {1 Profiler feed}

    Called by the scheduler and machine model; no-ops unless
    {!profiling_on} (except {!note_stall}, whose guard is the caller's —
    it is on the access path). *)

val clear_stall : unit -> unit
(** Forget any noted-but-unconsumed stall cycles. The scheduler calls
    this before a charged access so a stall noted by an unattributed
    machine access (e.g. a DMA agent) is not billed to the next thread. *)

val note_stall : int -> unit
(** Machine model: of the access being costed right now, this many cycles
    are coherence/memory stalls (write serialization, DRAM queueing).
    Accumulates until consumed by the next {!charged}. *)

val note_bw_stall : int -> unit
(** Machine model: of the access being costed right now, this many cycles
    are bandwidth queueing — token-bucket debt on a memory controller or
    interconnect link. Kept separate from {!note_stall} so the profiler
    distinguishes latency-bound from bandwidth-bound phases. Cleared
    together with latency stalls by {!clear_stall}. *)

val charged : tid:int -> hw:int -> cycles:int -> cls:[ `Work | `Mem ] -> unit
(** Attribute [cycles] just charged to [tid] (running on hardware thread
    [hw]) to its innermost open span; consumes pending {!note_stall} and
    {!note_bw_stall} cycles out of [`Mem]. *)

val park_begin : tid:int -> now:int -> unit
val park_end : tid:int -> now:int -> unit

(** {1 Failpoints} *)

val failpoint_drop_span_close : bool ref
(** Planted mutation for the self-test: when set, the next {!span_end}
    is silently dropped (the flag self-clears), leaving an unbalanced
    span stack that {!validate} and the trace well-formedness checks in
    [test/test_obs.ml] must catch. *)

(** {1 Inspection and export} *)

val event_count : unit -> int

val validate : unit -> (unit, string) result
(** Structural invariants over the collected trace: every span close had
    a matching open, all span stacks are empty (every open was closed),
    and per-thread timestamps are monotone. *)

val chrome_json : unit -> string
(** The collected trace in Chrome [trace_event] JSON format (an object
    with a [traceEvents] array), loadable in [chrome://tracing] and
    Perfetto. Timestamps are microseconds of a 2 GHz part: cycles / 2000. *)

val write_chrome : string -> unit
(** Write {!chrome_json} to a file. *)

val trace_path_from_env : unit -> string option
(** [Some path] when the [DPS_TRACE] environment variable is set — the
    conventional "trace this run to [path]" switch. *)

type prof_row = {
  phase : string;  (** span name, or ["(no span)"] for unattributed cycles *)
  entries : int;  (** times the phase was entered *)
  self_work : int;
  self_mem : int;  (** memory cycles net of stalls *)
  self_stall : int;  (** coherence-stall portion (write serialization, DRAM queueing) *)
  self_bwstall : int;  (** bandwidth-queueing portion (token-bucket debt) *)
  self_park : int;  (** parked wall-cycles attributed to the phase *)
  total : int;  (** inclusive: self of this phase plus everything charged below it *)
}

val profile : unit -> prof_row list
(** Flamegraph-style aggregation, sorted by inclusive total (descending). *)

val pp_profile : Format.formatter -> unit -> unit

val core_cycles : unit -> (int * int) list
(** Charged cycles per hardware thread, sorted by hw id. *)
