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

type tstate = {
  tid : int;
  hw : int;
  prng : Prng.t;
  mutable pending : int;
  mutable killed : bool;
  mutable parked : (unit, unit) Effect.Deep.continuation option;
  mutable permit : bool;
  mutable park_gen : int;  (* invalidates stale park_for timeouts *)
  mutable timed_out : bool;
  running : (t * tstate) option;
      (* the [current] slot's value while this thread runs, built once at
         spawn rather than at every resumption *)
}

(* The event queue's payload. The two hot cases — resuming a suspended
   thread, and waking a parked one — carry their state and continuation
   directly instead of capturing them in a fresh closure per scheduling
   point; [Thunk] covers the rare cases (spawn, timers via [at]). *)
and event =
  | Resume of tstate * (unit, unit) Effect.Deep.continuation
  | Wake of tstate * (unit, unit) Effect.Deep.continuation
  | Thunk of (unit -> unit)

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

type _ Effect.t += Suspend : (int * op_tag) -> unit Effect.t
type _ Effect.t += Park : unit Effect.t

let suspend_tagged tag cycles = Effect.perform (Suspend (cycles, tag))
let suspend cycles = suspend_tagged Work_op cycles

let exit () =
  ignore (ctx ());
  raise Killed

(* Resume a parked thread: the hardware thread was released while blocked
   (the hyperthread pair is genuinely idle), so re-activate it first —
   [Wake] carries that extra [set_active] in the run loop. *)
let resume_parked t (state : tstate) k = Calendar.push t.events ~time:t.time (Wake (state, k))

let kill t ~tid =
  match Hashtbl.find_opt t.states tid with
  | Some state ->
      state.killed <- true;
      (match state.parked with
      | Some k ->
          state.parked <- None;
          resume_parked t state k
      | None -> ());
      true
  | None -> false

let unpark t ~tid =
  match Hashtbl.find_opt t.states tid with
  | None -> false
  | Some state ->
      (match t.tracer with None -> () | Some f -> f (T_unpark { src = current_tid t; dst = tid }));
      (match state.parked with
      | Some k ->
          state.parked <- None;
          resume_parked t state k
      | None -> state.permit <- true);
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

let rec exec t state f =
  let open Effect.Deep in
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
          | Suspend (n, tag) ->
              Some
                (fun (k : (a, unit) continuation) ->
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
                  (* schedule-exploration hook: extra cycles forced onto this
                     scheduling point (lib/check preemption schedules) *)
                  let delay =
                    sat_add delay
                      (match t.sched_hook with
                      | None -> 0
                      | Some hook -> Int.max 0 (hook ~tid:state.tid ~now:t.time ~tag ~cycles:n))
                  in
                  let time = sat_add t.time (sat_add (Int.max 0 n) delay) in
                  Calendar.push t.events ~time (Resume (state, k)))
          | Park ->
              Some
                (fun (k : (a, unit) continuation) ->
                  if state.permit || state.killed then begin
                    state.permit <- false;
                    Calendar.push t.events ~time:t.time (Resume (state, k))
                  end
                  else begin
                    (* Blocked threads release the core: the hyperthread
                       sibling runs undilated until the wakeup. *)
                    Machine.set_active t.m ~thread:state.hw false;
                    state.parked <- Some k
                  end)
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
      parked = None;
      permit = false;
      park_gen = 0;
      timed_out = false;
      running = Some (t, state);
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
          | Resume (state, k) ->
              cur := state.running;
              if state.killed then Effect.Deep.discontinue k Killed else Effect.Deep.continue k ()
          | Wake (state, k) ->
              Machine.set_active t.m ~thread:state.hw true;
              cur := state.running;
              if state.killed then Effect.Deep.discontinue k Killed else Effect.Deep.continue k ()
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

let work n =
  let t, state = ctx () in
  let cost = Machine.work_cost t.m ~thread:state.hw n in
  if Obs.on () then Obs.charged ~tid:state.tid ~hw:state.hw ~cycles:cost ~cls:`Work;
  suspend (cost + take_pending state)

(* Trace-event timing must match when the operation's effect is visible to
   other threads. The codebase's convention is mutate-then-charge for plain
   stores (the store is visible from the moment the charge is issued) but
   charge-then-mutate for rmw (the compare-and-mutate happens atomically
   when the charge returns), and loads observe when the charge returns. So
   stores emit before the suspension, loads and rmw after — otherwise a
   spin-reader could observe an unlock and emit its load before the
   releaser's store event lands, losing the happens-before edge. *)
let access ~cls kind addr =
  let t, state = ctx () in
  let obs = Obs.on () in
  if obs then Obs.clear_stall ();
  let cost = Machine.access t.m ~now:t.time ~thread:state.hw ~addr ~kind in
  if obs then Obs.charged ~tid:state.tid ~hw:state.hw ~cycles:cost ~cls:`Mem;
  let store = match cls with Store | Release_store -> true | _ -> false in
  if store then emit_access t state cls addr;
  suspend_tagged (Access_op (kind, addr)) (cost + take_pending state);
  if not store then emit_access t state cls addr

let read addr = access ~cls:Load Machine.Read addr
let read_racy addr = access ~cls:Racy_load Machine.Read addr
let write addr = access ~cls:Store Machine.Write addr
let write_release addr = access ~cls:Release_store Machine.Write addr
let rmw addr = access ~cls:Atomic Machine.Rmw addr

let access_pipelined ~factor ~kind addr =
  assert (factor >= 1);
  let t, state = ctx () in
  let obs = Obs.on () in
  if obs then Obs.clear_stall ();
  let cost = Machine.access_mlp t.m ~now:t.time ~thread:state.hw ~addr ~kind ~factor in
  if obs then Obs.charged ~tid:state.tid ~hw:state.hw ~cycles:cost ~cls:`Mem;
  let cls =
    match kind with Machine.Read -> Load | Machine.Write -> Store | Machine.Rmw -> Atomic
  in
  if cls = Store then emit_access t state cls addr;
  suspend_tagged (Access_op (kind, addr)) (cost + take_pending state);
  if cls <> Store then emit_access t state cls addr

let charge_read_cls cls addr =
  let t, state = ctx () in
  let obs = Obs.on () in
  if obs then Obs.clear_stall ();
  let cost = Machine.access t.m ~now:t.time ~thread:state.hw ~addr ~kind:Machine.Read in
  if obs then Obs.charged ~tid:state.tid ~hw:state.hw ~cycles:cost ~cls:`Mem;
  state.pending <- state.pending + cost;
  emit_access t state cls addr

let charge_read addr = charge_read_cls Load addr
let charge_read_racy addr = charge_read_cls Racy_load addr

let sync_acquire token =
  let t, state = ctx () in
  emit_sync t state true token

let sync_release token =
  let t, state = ctx () in
  emit_sync t state false token

let flush () =
  let _, state = ctx () in
  if state.pending > 0 then begin
    let n = state.pending in
    state.pending <- 0;
    suspend n
  end

let yield () =
  let _, state = ctx () in
  suspend_tagged Yield_op (1 + take_pending state)

let park () =
  let t, state = ctx () in
  (* settle batched traversal charges before blocking *)
  let p = take_pending state in
  if p > 0 then suspend p;
  state.park_gen <- state.park_gen + 1;
  if Obs.on () then Obs.park_begin ~tid:state.tid ~now:t.time;
  Effect.perform Park;
  if Obs.on () then Obs.park_end ~tid:state.tid ~now:t.time;
  emit_wake t state

let park_for d =
  if d <= 0 then invalid_arg "Sthread.park_for";
  let t, state = ctx () in
  let p = take_pending state in
  if p > 0 then suspend p;
  let gen = state.park_gen + 1 in
  state.park_gen <- gen;
  state.timed_out <- false;
  at t
    ~time:(t.time + d)
    (fun () ->
      (* wake only the park this timeout belongs to *)
      match state.parked with
      | Some _ when state.park_gen = gen ->
          state.timed_out <- true;
          ignore (unpark t ~tid:state.tid)
      | _ -> ());
  if Obs.on () then Obs.park_begin ~tid:state.tid ~now:t.time;
  Effect.perform Park;
  if Obs.on () then Obs.park_end ~tid:state.tid ~now:t.time;
  emit_wake t state;
  state.timed_out

type sched = t

module Waitq = struct
  type t = int Queue.t

  let create () = Queue.create ()
  let waiters = Queue.length

  let wait q =
    let _, state = ctx () in
    Queue.push state.tid q;
    park ()

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
