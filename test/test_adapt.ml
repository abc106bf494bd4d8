(** Explored-schedule coverage for adaptive delegation (lib/adapt +
    Dps.set_mode) and the CNA lock behind its direct mode: exactly-once
    must survive mode flips racing in-flight operations, crashes during
    a transition, and the planted stuck-transition mutation must be
    caught and replay bit-for-bit. *)

module Sthread = Dps_sthread.Sthread
module Schedule = Dps_check.Schedule
module Check = Dps_check.Check
module Faults = Dps_faults
module Cna = Dps_sync.Cna

let sweep_simple ?(budget = 30) name scenario () =
  match Check.explore ~name ~budget scenario with
  | Ok () -> ()
  | Error f -> Alcotest.fail f.Check.message

(* --- counter DPS (the accounting oracle of test_check, adaptive) --- *)

type counters = { cells : int array }

let mk_counter_dps ?heal_after sim ~nclients ~locality_size =
  Dps.create sim.Check.sched ~nclients ~locality_size
    ~hash:(fun k -> k)
    ~serving:(Dps.Shared { heal_after; adaptive = Some `Delegated })
    ~mk_data:(fun (_ : Dps.partition_info) -> { cells = Array.make 32 0 })
    ()

let applied dps c =
  let total = ref 0 in
  for pid = 0 to Dps.npartitions dps - 1 do
    total := !total + (Dps.partition_data dps pid).cells.(c)
  done;
  !total

(* The controller stand-in: cycle every partition direct and back a fixed
   number of times, paced so flips land in the middle of the clients'
   issue windows. Runs unattached on a spare hardware thread, exactly
   like Adapt.run. *)
let flipper dps ~rounds ~period () =
  for round = 1 to rounds do
    ignore (Sthread.park_for period);
    let target = if round land 1 = 1 then `Direct else `Delegated in
    for pid = 0 to Dps.npartitions dps - 1 do
      Dps.set_mode dps ~pid target
    done
  done

let flipper_hw = 79 (* last hw thread of the default topology; no client lands there *)

(* Exactly-once across flips: every synchronous call must apply exactly
   once no matter where the Delegated -> Draining -> Direct transitions
   cut into its issue/serve/complete window. *)
let adaptive_flip_scenario ctl =
  Check.with_sim ctl (fun sim ->
      let nclients = 6 and per = 8 in
      let dps = mk_counter_dps sim ~nclients ~locality_size:3 in
      let nparts = Dps.npartitions dps in
      let acked = Array.make nclients 0 in
      for c = 0 to nclients - 1 do
        Sthread.spawn sim.Check.sched ~hw:(Dps.client_hw dps c) (fun () ->
            Dps.attach dps ~client:c;
            for i = 1 to per do
              ignore
                (Dps.call dps ~key:(i mod nparts) (fun d ->
                     d.cells.(c) <- d.cells.(c) + 1;
                     d.cells.(c)));
              acked.(c) <- acked.(c) + 1
            done;
            Dps.client_done dps;
            Dps.drain dps)
      done;
      Sthread.spawn sim.Check.sched ~hw:flipper_hw (flipper dps ~rounds:8 ~period:1_500);
      Sthread.run sim.Check.sched;
      let bad = ref None in
      for c = 0 to nclients - 1 do
        let a = applied dps c in
        if a <> acked.(c) && !bad = None then
          bad := Some (Printf.sprintf "client %d: %d acked but %d applied" c acked.(c) a)
      done;
      !bad)

(* Fire-and-forget accounting across flips: asynchronous operations have
   no awaiting sender to re-issue them, so a transition that strands a
   published ring entry loses the update outright — this is the oracle
   the stuck-transition mutation must trip. *)
let adaptive_async_scenario ctl =
  Check.with_sim ctl (fun sim ->
      let nclients = 6 and per = 8 in
      let dps = mk_counter_dps sim ~nclients ~locality_size:3 in
      let nparts = Dps.npartitions dps in
      let sent = Array.make nclients 0 in
      for c = 0 to nclients - 1 do
        Sthread.spawn sim.Check.sched ~hw:(Dps.client_hw dps c) (fun () ->
            Dps.attach dps ~client:c;
            for i = 1 to per do
              Dps.execute_async dps ~key:(i mod nparts) (fun d ->
                  d.cells.(c) <- d.cells.(c) + 1;
                  d.cells.(c));
              sent.(c) <- sent.(c) + 1
            done;
            Dps.client_done dps;
            Dps.drain dps)
      done;
      Sthread.spawn sim.Check.sched ~hw:flipper_hw (flipper dps ~rounds:8 ~period:1_200);
      Sthread.run sim.Check.sched;
      let bad = ref None in
      for c = 0 to nclients - 1 do
        let a = applied dps c in
        if a <> sent.(c) && !bad = None then
          bad := Some (Printf.sprintf "client %d: %d sent but %d applied" c sent.(c) a)
      done;
      !bad)

(* A client dies mid-issue while the flipper keeps migrating modes: the
   self-healing paths (takeover, lock break, re-issue) must compose with
   draining. Survivors stay exactly-once; the victim's last operation may
   land after its crash, so it is allowed one extra. *)
let adaptive_kill_scenario ctl =
  Check.with_sim ctl (fun sim ->
      let nclients = 6 and per = 6 and victim = 1 in
      let dps =
        mk_counter_dps sim ~nclients ~locality_size:3 ~heal_after:15_000
      in
      let nparts = Dps.npartitions dps in
      let plan = Faults.install sim.Check.sched ~seed:5L (Faults.spec ()) in
      Faults.schedule_crash plan ~tid:victim ~at:5_000;
      let acked = Array.make nclients 0 in
      for c = 0 to nclients - 1 do
        Sthread.spawn sim.Check.sched ~hw:(Dps.client_hw dps c) (fun () ->
            Dps.attach dps ~client:c;
            for i = 1 to per do
              ignore
                (Dps.call dps ~key:(i mod nparts) (fun d ->
                     d.cells.(c) <- d.cells.(c) + 1;
                     d.cells.(c)));
              acked.(c) <- acked.(c) + 1
            done;
            Dps.client_done dps;
            Dps.drain dps)
      done;
      Sthread.spawn sim.Check.sched ~hw:flipper_hw (flipper dps ~rounds:8 ~period:1_500);
      Sthread.run sim.Check.sched;
      let bad = ref None in
      for c = 0 to nclients - 1 do
        let a = applied dps c in
        if c = victim then begin
          if a < acked.(c) || a > acked.(c) + 1 then
            bad := Some (Printf.sprintf "victim: %d acked but %d applied" acked.(c) a)
        end
        else if a <> acked.(c) && !bad = None then
          bad := Some (Printf.sprintf "client %d: %d acked but %d applied" c acked.(c) a)
      done;
      !bad)

(* --- mutation self-test: the planted drain bug must be caught --- *)

let with_flag flag f =
  flag := true;
  Fun.protect ~finally:(fun () -> flag := false) f

let assert_caught_and_replays name scenario =
  match Check.explore ~name ~budget:150 scenario with
  | Ok () -> Alcotest.failf "%s: planted bug survived the schedule budget" name
  | Error f ->
      Alcotest.(check bool)
        (name ^ " minimized no larger than full") true
        (List.length f.Check.trace <= List.length f.Check.full_trace);
      let replay () = scenario (Schedule.make ~seed:0L (Schedule.Replay f.Check.trace)) in
      (match (replay (), replay ()) with
      | Some m1, Some m2 -> Alcotest.(check string) (name ^ " bit-for-bit replay") m1 m2
      | _ -> Alcotest.failf "%s: minimized trace did not replay the failure" name)

let test_mutation_stuck_transition () =
  with_flag Dps.failpoint_stuck_transition (fun () ->
      assert_caught_and_replays "dps stuck transition" adaptive_async_scenario)

(* --- the real controller, in-sim: Adapt.run must flip and stay safe --- *)

(* Skewed load with the actual controller thread attached: partition 0 is
   hammered, the rest are idle, so a policy with short epochs must send
   the idle partitions direct — and exactly-once must hold throughout. *)
let adapt_controller_scenario ctl =
  Check.with_sim ctl (fun sim ->
      let nclients = 6 and per = 16 in
      let dps = mk_counter_dps sim ~nclients ~locality_size:3 in
      let policy =
        {
          Dps_adapt.Adapt.default_policy with
          Dps_adapt.Adapt.epoch = 800;
          warmup_epochs = 1;
          hot_ops = 6;
          cool_ops = 1;
          hot_epochs = 1;
          cool_epochs = 2;
        }
      in
      let acked = Array.make nclients 0 in
      for c = 0 to nclients - 1 do
        Sthread.spawn sim.Check.sched ~hw:(Dps.client_hw dps c) (fun () ->
            Dps.attach dps ~client:c;
            for _ = 1 to per do
              ignore
                (Dps.call dps ~key:0 (fun d ->
                     d.cells.(c) <- d.cells.(c) + 1;
                     d.cells.(c)));
              acked.(c) <- acked.(c) + 1;
              Sthread.work 600
            done;
            Dps.client_done dps;
            Dps.drain dps)
      done;
      Sthread.spawn sim.Check.sched ~hw:flipper_hw (fun () ->
          Dps_adapt.Adapt.run ~policy dps);
      Sthread.run sim.Check.sched;
      let bad = ref None in
      for c = 0 to nclients - 1 do
        let a = applied dps c in
        if a <> acked.(c) && !bad = None then
          bad := Some (Printf.sprintf "client %d: %d acked but %d applied" c acked.(c) a)
      done;
      if !bad <> None then !bad
      else
        let to_direct, _ = Dps.mode_flips dps in
        if to_direct = 0 then Some "controller never sent an idle partition direct"
        else None)

(* --- CNA: the direct mode's lock, under explored schedules --- *)

(* Mutual exclusion with the race detector armed: the critical section
   touches a shared simulated line (Race must see the lock's RMW edges
   order those accesses) and a host-side occupancy flag (atomic between
   charges) that directly witnesses any overlap. *)
let cna_mutex_scenario ctl =
  Check.with_sim ctl (fun sim ->
      let l = Cna.create sim.Check.alloc sim.Check.machine in
      let line = Dps_sthread.Alloc.line sim.Check.alloc in
      let threads = 6 and per = 4 in
      let in_cs = ref false in
      let count = ref 0 in
      let bad = ref None in
      let fail m = if !bad = None then bad := Some m in
      for t = 0 to threads - 1 do
        Sthread.spawn sim.Check.sched ~hw:(13 * t) (fun () ->
            for _ = 1 to per do
              Cna.acquire l;
              if !in_cs then fail "two threads inside the critical section";
              in_cs := true;
              Sthread.read line;
              Sthread.work 40;
              Sthread.write line;
              incr count;
              in_cs := false;
              Cna.release l
            done)
      done;
      Sthread.run sim.Check.sched;
      if !bad <> None then !bad
      else if !count <> threads * per then
        Some (Printf.sprintf "lost updates under the lock: %d of %d" !count (threads * per))
      else if Cna.held l then Some "lock still held after all threads exited"
      else None)

(* try_acquire's contract: it wins only an empty queue, never enqueues,
   and the winner still excludes everyone — checked against a thread
   using the blocking path concurrently. *)
let cna_try_scenario ctl =
  Check.with_sim ctl (fun sim ->
      let l = Cna.create sim.Check.alloc sim.Check.machine in
      let in_cs = ref false in
      let wins = ref 0 in
      let bad = ref None in
      let fail m = if !bad = None then bad := Some m in
      let go = ref false in
      Sthread.spawn sim.Check.sched ~hw:0 (fun () ->
          (* solo phase: the contender is gated on [go], so the lock is
             provably free (and then provably held) for the contract
             checks regardless of the explored schedule *)
          if not (Cna.try_acquire l) then fail "free lock refused try_acquire"
          else begin
            if Cna.try_acquire l then fail "held lock granted try_acquire";
            Cna.release l
          end;
          go := true;
          for _ = 1 to 6 do
            if Cna.try_acquire l then begin
              if !in_cs then fail "try_acquire broke mutual exclusion";
              in_cs := true;
              incr wins;
              Sthread.work 30;
              in_cs := false;
              Cna.release l
            end
            else Sthread.work 50
          done);
      Sthread.spawn sim.Check.sched ~hw:21 (fun () ->
          while not !go do
            Sthread.work 20
          done;
          for _ = 1 to 6 do
            Cna.acquire l;
            if !in_cs then fail "acquire broke mutual exclusion";
            in_cs := true;
            Sthread.work 30;
            in_cs := false;
            Cna.release l
          done);
      Sthread.run sim.Check.sched;
      if !bad <> None then !bad
      else if Cna.held l then Some "lock still held after all threads exited"
      else None)

(* Recovery from a dead holder, as DPS's direct mode does it: every
   contender that sees the dead owner breaks the lock, then retries
   try_acquire. Two breakers racing must not wipe out the acquisition the
   faster one already won — that leaves two holders, and the loser's
   release then waits forever for a successor link. A holder counts as
   inside until its release returns, so the stuck release shows up as an
   overlap (raised at once: the simulation would never finish). *)
let cna_break_scenario ctl =
  Check.with_sim ctl (fun sim ->
      let l = Cna.create sim.Check.alloc sim.Check.machine in
      let dead = ref (-1) in
      let inside = ref false in
      let wins = ref 0 in
      Sthread.spawn sim.Check.sched ~hw:0 (fun () ->
          (* takes the lock and exits holding it *)
          if Cna.try_acquire l then dead := Sthread.self_id ());
      for t = 1 to 3 do
        Sthread.spawn sim.Check.sched ~hw:(13 * t) (fun () ->
            while !dead < 0 do
              Sthread.work 20
            done;
            let mine = ref 0 in
            while !mine < 2 do
              if Cna.try_acquire l then begin
                if !inside then failwith "two holders after break_lock";
                inside := true;
                Sthread.work 30;
                Cna.release l;
                inside := false;
                incr mine;
                incr wins
              end
              else begin
                (match Cna.owner l with Some h when h = !dead -> Cna.break_lock l | _ -> ());
                Sthread.work 40
              end
            done)
      done;
      Sthread.run sim.Check.sched;
      if !wins <> 6 then Some (Printf.sprintf "%d of 6 acquisitions" !wins)
      else if Cna.held l then Some "lock still held after all threads exited"
      else None)

(* --- suite --- *)

let suite =
  [
    ("adaptive exactly-once under mode flips", `Quick,
     sweep_simple "adapt_flips" adaptive_flip_scenario);
    ("adaptive async accounting across drains", `Quick,
     sweep_simple "adapt_async" adaptive_async_scenario);
    ("adaptive crash during transition", `Quick,
     sweep_simple "adapt_kill" adaptive_kill_scenario);
    ("mutation: stuck transition caught", `Quick, test_mutation_stuck_transition);
    ("controller flips idle partitions direct", `Quick,
     sweep_simple "adapt_controller" adapt_controller_scenario);
    ("cna mutual exclusion under schedules", `Quick,
     sweep_simple "cna_mutex" cna_mutex_scenario);
    ("cna try_acquire contract", `Quick, sweep_simple "cna_try" cna_try_scenario);
    (* the racing-breaker schedule first shows up at index 63 *)
    ("cna racing lock breakers", `Quick, sweep_simple ~budget:100 "cna_break" cna_break_scenario);
  ]
