module Calendar = Dps_simcore.Calendar
module Prng = Dps_simcore.Prng
module Machine = Dps_machine.Machine
module Obs = Dps_obs.Obs

exception Killed

(* What a suspension is for — exposed to the fault hook so chaos plans can
   target memory accesses specifically (e.g. "delay remote reads"). *)
type op_tag = Work_op | Access_op of Machine.kind * int | Yield_op

type fault = Crash | Stall of int

(* How an access participates in the happens-before model (lib/check's race
   detector). The machine model charges [Racy_load] like [Load] and
   [Release_store] like [Store]; only the trace event differs. *)
type access_class = Load | Racy_load | Store | Release_store | Atomic

type trace_ev =
  | T_access of { tid : int; cls : access_class; addr : int }
  | T_sync of { tid : int; acquire : bool; token : int }
  | T_spawn of { parent : int option; child : int }
  | T_unpark of { src : int option; dst : int }
  | T_wake of { tid : int }
  | T_retire of { tid : int }

(* A thread is running, suspended (its [resume] event queued), parked
   ([parked], nothing queued) or woken ([wake] queued), so it has at most
   one of those events queued and one continuation to keep: [k]. Everything
   a scheduling point needs is built once per thread, so suspending,
   parking and waking allocate nothing but the runtime's continuation.
   Only a [Suspend] or [Park] handler queues [resume] or [wake] — [kill]
   and [unpark] go through [parked] — so [k] is set whenever either event
   runs; nothing may queue them before the thread's first suspension. *)
type tstate = {
  tid : int;
  hw : int;
  prng : Prng.t;
  mutable pending : int;
  mutable killed : bool;
  mutable k : (unit, unit) Effect.Deep.continuation;
      (* where the thread stopped; [no_k] before its first suspension *)
  mutable resume_at : int;  (* when the [Suspend] being performed ends *)
  mutable parked : bool;
  mutable permit : bool;
  mutable park_gen : int;  (* invalidates stale park_for timeouts *)
  mutable timed_out : bool;
  running : (t * tstate) option;
      (* the [current] slot's value while this thread runs *)
  resume : event;  (* [Resume] of this thread *)
  wake : event;  (* [Wake] of this thread *)
}

(* The event queue's payload. The hot cases — resuming a suspended thread,
   waking a parked one — are values built once per thread; [Thunk] covers
   the rest (spawn, [park_for] deadlines, timers via [at]). *)
and event = Resume of tstate | Wake of tstate | Thunk of (unit -> unit)

and t = {
  m : Machine.t;
  events : event Calendar.t;
  mutable time : int;
  mutable live : int;
  mutable next_tid : int;
  root_prng : Prng.t;
  states : (int, tstate) Hashtbl.t;  (* live threads, by tid *)
  mutable exit_hooks : (int -> unit) list;
  mutable fault_hook : (tid:int -> now:int -> tag:op_tag -> cycles:int -> fault option) option;
  mutable sched_hook : (tid:int -> now:int -> tag:op_tag -> cycles:int -> int) option;
  mutable tracer : (trace_ev -> unit) option;
}

(* "The thread currently executing" is a slot set before each resumption.
   Each scheduler runs on a single domain, but the parallel experiment
   runner (Dps_simcore.Par) runs independent schedulers on *different*
   domains concurrently, so the slot is domain-local state, not a plain
   module-level ref — that was the one piece of simulator state shared
   across experiment points. *)
let current_key : (t * tstate) option ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref None)

let current () = Domain.DLS.get current_key

let ctx () =
  match !(current ()) with
  | Some c -> c
  | None -> failwith "Sthread: called from outside a simulated thread"

let create m =
  {
    m;
    events = Calendar.create ();
    time = 0;
    live = 0;
    next_tid = 0;
    root_prng = Prng.create 7L;
    states = Hashtbl.create 64;
    exit_hooks = [];
    fault_hook = None;
    sched_hook = None;
    tracer = None;
  }

let machine t = t.m
let now t = t.time
let live_threads t = t.live

let on_exit t hook = t.exit_hooks <- t.exit_hooks @ [ hook ]
let set_fault_hook t hook = t.fault_hook <- hook
let set_sched_hook t hook = t.sched_hook <- hook
let set_tracer t tr = t.tracer <- tr

(* Each emitter builds its trace record only under [Some f]. Passed to a
   generic [emit], the record would be allocated on every untraced call:
   without flambda nothing sinks the allocation into the match. *)
let current_tid t = match !(current ()) with Some (t', s) when t' == t -> Some s.tid | _ -> None

let emit_access t state cls addr =
  match t.tracer with None -> () | Some f -> f (T_access { tid = state.tid; cls; addr })

let emit_sync t state acquire token =
  match t.tracer with None -> () | Some f -> f (T_sync { tid = state.tid; acquire; token })

let emit_wake t state = match t.tracer with None -> () | Some f -> f (T_wake { tid = state.tid })

(* [Suspend] resumes the thread at its [resume_at]; [Park] blocks it until
   an [unpark] (or consumes a permit). Both are constants: what they need
   is in the thread's state. *)
type _ Effect.t += Suspend : unit Effect.t
type _ Effect.t += Park : unit Effect.t

(* A placeholder for [tstate.k]; the run loop only reads [k] at an event
   that a suspension or park queued after storing it. *)
let no_k : (unit, unit) Effect.Deep.continuation = Obj.magic 0

let exit () =
  ignore (ctx ());
  raise Killed

(* Resume a parked thread: the hardware thread was released while blocked
   (the hyperthread pair is genuinely idle), so re-activate it first —
   [Wake] carries that extra [set_active] in the run loop. *)
let resume_parked t state =
  state.parked <- false;
  Calendar.push t.events ~time:t.time state.wake

(* [Hashtbl.find], not [find_opt]: a lookup per wakeup allocates no option. *)
let kill t ~tid =
  match Hashtbl.find t.states tid with
  | exception Not_found -> false
  | state ->
      state.killed <- true;
      if state.parked then resume_parked t state;
      true

let unpark_state t state =
  (match t.tracer with
  | None -> ()
  | Some f -> f (T_unpark { src = current_tid t; dst = state.tid }));
  if state.parked then resume_parked t state else state.permit <- true

let unpark t ~tid =
  match Hashtbl.find t.states tid with
  | exception Not_found -> false
  | state ->
      unpark_state t state;
      true

(* A timer runs outside every thread: the run loop clears [current]
   before each [Thunk]. *)
let at t ~time f =
  if time < t.time then invalid_arg "Sthread.at: time in the past";
  Calendar.push t.events ~time (Thunk f)

(* Retire a thread — normal return, voluntary [exit], or [kill]. Exit hooks
   run with [current] still pointing at the dying thread, but must not
   perform charged operations (the fiber is gone). *)
let retire t state =
  Machine.set_active t.m ~thread:state.hw false;
  t.live <- t.live - 1;
  Hashtbl.remove t.states state.tid;
  (match t.tracer with None -> () | Some f -> f (T_retire { tid = state.tid }));
  List.iter (fun hook -> hook state.tid) t.exit_hooks

(* Sum of non-negative ints, saturated at [max_int]. Resume times use it:
   a thread stalled past every horizon never resumes ([run] reads [max_int]
   as "nothing left"), where the wrapped sum would run it first, in the
   past. *)
let sat_add a b =
  let s = a + b in
  if s < 0 then max_int else s

(* The thread's two effect handlers, built once: each stores the
   continuation and queues the thread's own event, or parks it. *)
let rec exec t state f =
  let open Effect.Deep in
  let suspended =
    Some
      (fun k ->
        state.k <- k;
        Calendar.push t.events ~time:state.resume_at state.resume)
  in
  let parked =
    Some
      (fun k ->
        state.k <- k;
        if state.permit || state.killed then begin
          state.permit <- false;
          Calendar.push t.events ~time:t.time state.resume
        end
        else begin
          (* Blocked threads release the core: the hyperthread sibling
             runs undilated until the wakeup. *)
          Machine.set_active t.m ~thread:state.hw false;
          state.parked <- true
        end)
  in
  match_with f ()
    {
      retc = (fun () -> retire t state);
      exnc =
        (fun e ->
          match e with
          | Killed -> retire t state
          | e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend -> (suspended : ((a, unit) continuation -> unit) option)
          | Park -> parked
          | _ -> None);
    }

and spawn t ~hw f =
  let rec state =
    {
      tid = t.next_tid;
      hw;
      prng = Prng.split t.root_prng;
      pending = 0;
      killed = false;
      k = no_k;
      resume_at = 0;
      parked = false;
      permit = false;
      park_gen = 0;
      timed_out = false;
      running = Some (t, state);
      resume = Resume state;
      wake = Wake state;
    }
  in
  t.next_tid <- t.next_tid + 1;
  t.live <- t.live + 1;
  Hashtbl.replace t.states state.tid state;
  (match t.tracer with
  | None -> ()
  | Some f -> f (T_spawn { parent = current_tid t; child = state.tid }));
  Machine.set_active t.m ~thread:hw true;
  Calendar.push t.events ~time:t.time
    (Thunk
       (fun () ->
         current () := state.running;
         if state.killed then retire t state else exec t state f))

let continue_thread state =
  if state.killed then Effect.Deep.discontinue state.k Killed
  else Effect.Deep.continue state.k ()

let run ?until t =
  let cur = current () in
  let saved = !cur in
  let limit = match until with Some u -> u | None -> max_int in
  Fun.protect
    ~finally:(fun () -> cur := saved)
    (fun () ->
      let keep_going = ref true in
      while !keep_going do
        (* Peek, then take: the drain loop allocates nothing per event, and
           stopping at [limit] after a peek leaves the push bound at [now]. *)
        let tm = Calendar.next_time t.events in
        if tm = max_int || tm > limit then keep_going := false
        else begin
          t.time <- tm;
          match Calendar.take t.events with
          | Resume state ->
              cur := state.running;
              continue_thread state
          | Wake state ->
              Machine.set_active t.m ~thread:state.hw true;
              cur := state.running;
              continue_thread state
          | Thunk f ->
              cur := None;
              f ()
        end
      done)

let in_sim () = match !(current ()) with Some _ -> true | None -> false
let self_hw () = (snd (ctx ())).hw
let self_id () = (snd (ctx ())).tid
let self_prng () = (snd (ctx ())).prng
let time () = (fst (ctx ())).time

(* Observability span around [f]: host-side only, balanced under kills
   (the scheduler discontinues with [Killed], so the finalizer runs). *)
let obs_span ?args name f =
  if Obs.on () then begin
    let t, state = ctx () in
    Obs.span_begin ~tid:state.tid ~now:t.time ?args name;
    Fun.protect
      ~finally:(fun () ->
        let t, state = ctx () in
        Obs.span_end ~tid:state.tid ~now:t.time)
      f
  end
  else f ()

(* Any suspending operation first drains charges accumulated by
   [charge_read], so batched traversal costs land before the operation. *)
let take_pending state =
  let p = state.pending in
  state.pending <- 0;
  p

(* Extra cycles the fault and schedule hooks put on a scheduling point
   about to charge [n] cycles for [tag]. A [Crash] marks the thread to die
   at its resumption. *)
let hook_delay t state tag n =
  let delay =
    match t.fault_hook with
    | None -> 0
    | Some hook -> (
        match hook ~tid:state.tid ~now:t.time ~tag ~cycles:n with
        | None -> 0
        | Some (Stall d) -> Int.max 0 d
        | Some Crash ->
            state.killed <- true;
            0)
  in
  (* schedule-exploration hook: extra cycles forced onto this scheduling
     point (lib/check preemption schedules) *)
  sat_add delay
    (match t.sched_hook with
    | None -> 0
    | Some hook -> Int.max 0 (hook ~tid:state.tid ~now:t.time ~tag ~cycles:n))

let hooked t = match (t.fault_hook, t.sched_hook) with None, None -> false | _ -> true

(* Suspend the calling thread for [n] cycles plus the hooks' [delay]. *)
let suspend_for t state n delay =
  state.resume_at <- sat_add t.time (sat_add (Int.max 0 n) delay);
  Effect.perform Suspend

(* A scheduling point with a constant tag; accesses build theirs only
   when a hook will read it. *)
let suspend_tagged t state tag n =
  suspend_for t state n (if hooked t then hook_delay t state tag n else 0)

(* The charged operations below do nothing outside a simulated thread, so
   library code runs the same logic cold (population, verification) and
   charged. Each reads the [current] slot once. *)

let work n =
  match !(current ()) with
  | None -> ()
  | Some (t, state) ->
      let cost = Machine.work_cost t.m ~thread:state.hw n in
      if Obs.on () then Obs.charged ~tid:state.tid ~hw:state.hw ~cycles:cost ~cls:`Work;
      suspend_tagged t state Work_op (cost + take_pending state)

(* The machine's cost of one memory access, recorded for observability.
   [mlp > 0] divides its latency by that memory-level parallelism
   ({!access_pipelined}); [mlp = 0] is a plain access. *)
let charge t state ~mlp kind addr =
  let obs = Obs.on () in
  if obs then Obs.clear_stall ();
  let cost =
    if mlp = 0 then Machine.access t.m ~now:t.time ~thread:state.hw ~addr ~kind
    else Machine.access_mlp t.m ~now:t.time ~thread:state.hw ~addr ~kind ~factor:mlp
  in
  if obs then Obs.charged ~tid:state.tid ~hw:state.hw ~cycles:cost ~cls:`Mem;
  cost

(* Trace-event timing must match when the operation's effect is visible to
   other threads. The codebase's convention is mutate-then-charge for plain
   stores (the store is visible from the moment the charge is issued) but
   charge-then-mutate for rmw (the compare-and-mutate happens atomically
   when the charge returns), and loads observe when the charge returns. So
   stores emit before the suspension, loads and rmw after — otherwise a
   spin-reader could observe an unlock and emit its load before the
   releaser's store event lands, losing the happens-before edge. *)
let suspend_access t state cls kind addr cost =
  let store = match cls with Store | Release_store -> true | _ -> false in
  if store then emit_access t state cls addr;
  let n = cost + take_pending state in
  suspend_for t state n (if hooked t then hook_delay t state (Access_op (kind, addr)) n else 0);
  if not store then emit_access t state cls addr

let access cls kind addr =
  match !(current ()) with
  | None -> ()
  | Some (t, state) -> suspend_access t state cls kind addr (charge t state ~mlp:0 kind addr)

let read addr = access Load Machine.Read addr
let read_racy addr = access Racy_load Machine.Read addr
let write addr = access Store Machine.Write addr
let write_release addr = access Release_store Machine.Write addr
let rmw addr = access Atomic Machine.Rmw addr

let access_pipelined ~factor ~kind addr =
  assert (factor >= 1);
  match !(current ()) with
  | None -> ()
  | Some (t, state) ->
      let cls =
        match kind with Machine.Read -> Load | Machine.Write -> Store | Machine.Rmw -> Atomic
      in
      suspend_access t state cls kind addr (charge t state ~mlp:factor kind addr)

let charge_read_cls cls addr =
  match !(current ()) with
  | None -> ()
  | Some (t, state) ->
      state.pending <- state.pending + charge t state ~mlp:0 Machine.Read addr;
      emit_access t state cls addr

let charge_read addr = charge_read_cls Load addr
let charge_read_racy addr = charge_read_cls Racy_load addr

let sync_acquire token =
  match !(current ()) with None -> () | Some (t, state) -> emit_sync t state true token

let sync_release token =
  match !(current ()) with None -> () | Some (t, state) -> emit_sync t state false token

let flush () =
  match !(current ()) with
  | Some (t, state) when state.pending > 0 -> suspend_tagged t state Work_op (take_pending state)
  | _ -> ()

(* Park the calling thread until an unpark (or a pending permit) or, for
   [timeout > 0], until [timeout] cycles pass. Batched [charge_read] costs
   are settled first. *)
let block t state timeout =
  let p = take_pending state in
  if p > 0 then suspend_tagged t state Work_op p;
  let gen = state.park_gen + 1 in
  state.park_gen <- gen;
  if timeout > 0 then begin
    state.timed_out <- false;
    (* saturated: a deadline past every horizon never fires *)
    at t
      ~time:(sat_add t.time timeout)
      (fun () ->
        (* wake only the park this timeout belongs to *)
        if state.parked && state.park_gen = gen then begin
          state.timed_out <- true;
          unpark_state t state
        end)
  end;
  if Obs.on () then Obs.park_begin ~tid:state.tid ~now:t.time;
  Effect.perform Park;
  if Obs.on () then Obs.park_end ~tid:state.tid ~now:t.time;
  emit_wake t state

let park () =
  let t, state = ctx () in
  block t state 0

let park_for d =
  if d <= 0 then invalid_arg "Sthread.park_for";
  let t, state = ctx () in
  block t state d;
  state.timed_out

type sched = t

module Waitq = struct
  type t = int Queue.t

  let create () = Queue.create ()
  let waiters = Queue.length

  let wait q =
    let t, state = ctx () in
    Queue.push state.tid q;
    block t state 0

  let signal sched q =
    let rec go () =
      match Queue.take_opt q with
      | None -> false
      | Some tid -> if unpark sched ~tid then true else go () (* skip dead waiters *)
    in
    go ()

  let broadcast sched q =
    let n = ref 0 in
    while signal sched q do
      incr n
    done;
    !n
end
