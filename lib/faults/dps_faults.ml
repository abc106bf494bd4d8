module Sthread = Dps_sthread.Sthread
module Prng = Dps_simcore.Prng
module Obs = Dps_obs.Obs

type spec = {
  stall_prob : float;
  stall_cycles : int;
  delay_prob : float;
  delay_cycles : int;
  after : int;
}

let spec ?(stall_prob = 0.0) ?(stall_cycles = 1000) ?(delay_prob = 0.0) ?(delay_cycles = 1000)
    ?(after = 0) () =
  { stall_prob; stall_cycles; delay_prob; delay_cycles; after }

type event = Ev_crash | Ev_stall of int

type t = {
  sched : Sthread.t;
  spec : spec;
  prng : Prng.t;
  (* per-tid scheduled events, kept sorted by due time *)
  scheduled : (int, (int * event) list ref) Hashtbl.t;
  mutable n_crashes : int;
  mutable n_stalls : int;
  mutable n_delays : int;
  mutable crashed_rev : int list;
}

let add_event t ~tid ~at ev =
  let q =
    match Hashtbl.find_opt t.scheduled tid with
    | Some q -> q
    | None ->
        let q = ref [] in
        Hashtbl.replace t.scheduled tid q;
        q
  in
  q := List.merge (fun (a, _) (b, _) -> compare a b) !q [ (at, ev) ]

let schedule_crash t ~tid ~at = add_event t ~tid ~at Ev_crash
let schedule_stall t ~tid ~at ~cycles = add_event t ~tid ~at (Ev_stall (max 1 cycles))

(* Whole-node kill: the victim tids are resolved at fire time (threads may
   not have run — hence have no tid — when the kill is planned), each gets
   an immediately-due crash event, and parked victims are woken so they
   reach a decision point instead of dying only at their next natural
   wake-up. *)
let schedule_kill t ~at ~tids =
  Sthread.at t.sched ~time:at (fun () ->
      List.iter
        (fun tid ->
          add_event t ~tid ~at Ev_crash;
          ignore (Sthread.unpark t.sched ~tid))
        (tids ()))

let record_crash t tid =
  t.n_crashes <- t.n_crashes + 1;
  t.crashed_rev <- tid :: t.crashed_rev

(* Pop the first scheduled event for [tid] that is due at [now]. *)
let due_event t ~tid ~now =
  match Hashtbl.find_opt t.scheduled tid with
  | None -> None
  | Some q -> (
      match !q with
      | (at, ev) :: rest when now >= at ->
          q := rest;
          Some ev
      | _ -> None)

let decide_raw t ~tid ~now ~tag ~cycles:_ =
  match due_event t ~tid ~now with
  | Some Ev_crash ->
      record_crash t tid;
      Some Sthread.Crash
  | Some (Ev_stall n) ->
      t.n_stalls <- t.n_stalls + 1;
      Some (Sthread.Stall n)
  | None ->
      let s = t.spec in
      if now < s.after then None
      else if s.stall_prob > 0.0 && Prng.below t.prng s.stall_prob then begin
        t.n_stalls <- t.n_stalls + 1;
        Some (Sthread.Stall (1 + Prng.int t.prng s.stall_cycles))
      end
      else
        match tag with
        | Sthread.Access_op _ when s.delay_prob > 0.0 && Prng.below t.prng s.delay_prob ->
            t.n_delays <- t.n_delays + 1;
            Some (Sthread.Stall (1 + Prng.int t.prng s.delay_cycles))
        | _ -> None

let decide t ~tid ~now ~tag ~cycles =
  let d = decide_raw t ~tid ~now ~tag ~cycles in
  (if Obs.tracing_on () then
     match d with
     | Some Sthread.Crash -> Obs.instant ~tid ~now ~cat:"fault" "fault.crash"
     | Some (Sthread.Stall n) -> Obs.complete ~tid ~now ~dur:n ~cat:"fault" "fault.stall"
     | None -> ());
  d

let install sched ~seed spec =
  let t =
    {
      sched;
      spec;
      prng = Prng.create seed;
      scheduled = Hashtbl.create 16;
      n_crashes = 0;
      n_stalls = 0;
      n_delays = 0;
      crashed_rev = [];
    }
  in
  Sthread.set_fault_hook sched
    (Some (fun ~tid ~now ~tag ~cycles -> decide t ~tid ~now ~tag ~cycles));
  t

let uninstall t = Sthread.set_fault_hook t.sched None

let register_obs t reg =
  let module R = Dps_obs.Registry in
  let g name f = R.gauge_fn reg name (fun () -> float_of_int (f t)) in
  g "fault.crashes" (fun t -> t.n_crashes);
  g "fault.stalls" (fun t -> t.n_stalls);
  g "fault.delays" (fun t -> t.n_delays)
let crashes_injected t = t.n_crashes
let stalls_injected t = t.n_stalls
let delays_injected t = t.n_delays
let crashed t = List.rev t.crashed_rev
