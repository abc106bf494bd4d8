(** Deterministic fault injection for the simulator — the chaos harness.

    A fault plan is installed on a scheduler and consulted at every
    scheduling point of every simulated thread (see
    {!Dps_sthread.Sthread.set_fault_hook}). It can {e crash} a thread (its
    continuation is dropped and the hardware thread deactivated), {e
    stall} it for extra cycles, or {e delay} specific memory accesses —
    so any workload runs under chaos with no changes.

    Two sources of faults compose:
    - a {e schedule} of explicit events ({!schedule_crash},
      {!schedule_kill}, {!schedule_stall}) — "kill client 7 at
      t=80_000". Crashes come only from here;
    - a {e spec} of stall and delay rates drawn from a PRNG seeded at
      {!install} — background chaos.

    Everything is deterministic: the simulation is single-threaded and
    event-ordered, so the same seed, spec and schedule reproduce the same
    crashes at the same cycle, and (with the self-healing runtime) the
    same recovery — chaos runs are replayable bit-for-bit. *)

type spec = {
  stall_prob : float;  (** P(stall) per scheduling point *)
  stall_cycles : int;  (** stall length, drawn uniformly in [1, stall_cycles] *)
  delay_prob : float;  (** P(extra latency) per charged memory access *)
  delay_cycles : int;  (** delay length, drawn uniformly in [1, delay_cycles] *)
  after : int;  (** quiet period: no drawn faults before this simulated time *)
}

val spec :
  ?stall_prob:float ->
  ?stall_cycles:int ->
  ?delay_prob:float ->
  ?delay_cycles:int ->
  ?after:int ->
  unit ->
  spec
(** Both probabilities default to 0 (no background chaos), [stall_cycles]
    and [delay_cycles] to 1000, [after] to 0. Every simulated thread may
    be stalled or delayed; crashes are never drawn, only scheduled. *)

type t

val install : Dps_sthread.Sthread.t -> seed:int64 -> spec -> t
(** Install the plan as the scheduler's fault hook (replacing any previous
    hook). The plan draws from its own PRNG stream seeded with [seed]. *)

val uninstall : t -> unit
(** Clear the scheduler's fault hook (faults stop; counters survive). *)

val schedule_crash : t -> tid:int -> at:int -> unit
(** Kill thread [tid] at its first scheduling point at or after simulated
    time [at]. Exact and deterministic regardless of the spec. *)

val schedule_kill : t -> at:int -> tids:(unit -> int list) -> unit
(** Whole-node kill: at time [at], crash every thread in [tids ()] —
    resolved at fire time, so victims that acquire their tid only once
    they first run (server pollers) can still be targeted at plan time.
    Parked victims are woken so they die promptly rather than at their
    next natural wake-up. Deterministic. *)

val schedule_stall : t -> tid:int -> at:int -> cycles:int -> unit
(** Stall thread [tid] by [cycles] at its first scheduling point at or
    after [at]. *)

(** {1 Report} *)

val crashes_injected : t -> int
val stalls_injected : t -> int
val delays_injected : t -> int

val crashed : t -> int list
(** Simulated thread ids crashed by this plan, in injection order. *)

val register_obs : t -> Dps_obs.Registry.t -> unit
(** Publish the plan's injection counters ([fault.crashes],
    [fault.stalls], [fault.delays]) as callback gauges. When tracing is
    enabled, injected faults also appear on the trace timeline as
    [fault.crash] instants and [fault.stall] intervals. *)
