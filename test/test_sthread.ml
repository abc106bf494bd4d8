(* Tests for the discrete-event simulated-thread scheduler. *)

module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Sthread = Dps_sthread.Sthread

let mk () = Sthread.create (Machine.create Machine.config_default)

let test_single_thread_runs () =
  let s = mk () in
  let ran = ref false in
  Sthread.spawn s ~hw:0 (fun () ->
      Sthread.work 100;
      ran := true);
  Sthread.run s;
  Alcotest.(check bool) "ran" true !ran;
  Alcotest.(check int) "time advanced by work" 100 (Sthread.now s)

let test_threads_interleave () =
  let s = mk () in
  let log = ref [] in
  let worker name =
    Sthread.spawn s ~hw:(if name = "a" then 0 else 2) (fun () ->
        for i = 1 to 3 do
          Sthread.work 10;
          log := (name, i) :: !log
        done)
  in
  worker "a";
  worker "b";
  Sthread.run s;
  let log = List.rev !log in
  (* Equal costs: steps alternate deterministically. *)
  Alcotest.(check int) "6 steps" 6 (List.length log);
  let a_steps = List.filteri (fun i _ -> i mod 2 = 0) log in
  Alcotest.(check bool) "interleaved" true
    (List.for_all (fun (n, _) -> n = "a") a_steps
    || List.for_all (fun (n, _) -> n = "b") a_steps)

let test_memory_access_charges_time () =
  let s = mk () in
  let m = Sthread.machine s in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:1 in
  Sthread.spawn s ~hw:0 (fun () ->
      Sthread.read a;
      Sthread.read a);
  Sthread.run s;
  let costs = (Machine.config m).Machine.costs in
  Alcotest.(check int) "walk + dram, then hit"
    (costs.Dps_machine.Costs.walk_local + costs.Dps_machine.Costs.dram_local
   + costs.Dps_machine.Costs.priv_hit)
    (Sthread.now s)

let test_deterministic_schedule () =
  let run_once () =
    let s = mk () in
    let m = Sthread.machine s in
    let a = Machine.alloc m Machine.Interleave ~lines:64 in
    let trace = Buffer.create 256 in
    for t = 0 to 7 do
      Sthread.spawn s ~hw:(t * 2) (fun () ->
          let p = Sthread.self_prng () in
          for _ = 1 to 20 do
            let addr = a + Dps_simcore.Prng.int p 64 in
            if Dps_simcore.Prng.bool p then Sthread.write addr else Sthread.read addr;
            Buffer.add_string trace (Printf.sprintf "%d@%d;" (Sthread.self_id ()) (Sthread.time ()))
          done)
    done;
    Sthread.run s;
    (Buffer.contents trace, Sthread.now s)
  in
  let t1, n1 = run_once () and t2, n2 = run_once () in
  Alcotest.(check string) "identical traces" t1 t2;
  Alcotest.(check int) "identical end time" n1 n2

let test_run_until () =
  let s = mk () in
  let steps = ref 0 in
  Sthread.spawn s ~hw:0 (fun () ->
      while Sthread.time () < 10_000 do
        Sthread.work 100;
        incr steps
      done);
  Sthread.run ~until:500 s;
  let at_500 = !steps in
  Alcotest.(check bool) "paused early" true (at_500 <= 6);
  Sthread.run s;
  Alcotest.(check int) "completed" 100 !steps

(* After [run ~until] stops short of its pending events, a timer at [now]
   and a fresh thread both run before them, and [now] never goes back. The
   scheduler's queue has already looked at the pending events, so both new
   events go below the earliest time it has seen. *)
let test_push_below_peeked_event () =
  let s = mk () in
  let log = ref [] in
  let note name = log := (name, Sthread.now s) :: !log in
  Sthread.at s ~time:100 (fun () -> note "timer");
  Sthread.spawn s ~hw:0 (fun () ->
      Sthread.work 1_000;
      note "near");
  Sthread.spawn s ~hw:2 (fun () ->
      Sthread.work 20_000;
      note "far");
  Sthread.run ~until:500 s;
  Alcotest.(check int) "stopped at the last event run" 100 (Sthread.now s);
  Sthread.at s ~time:(Sthread.now s) (fun () -> note "at now");
  Sthread.spawn s ~hw:4 (fun () -> note "spawned");
  Sthread.run s;
  Alcotest.(check (list (pair string int)))
    "order and times"
    [ ("timer", 100); ("at now", 100); ("spawned", 100); ("near", 1_000); ("far", 20_000) ]
    (List.rev !log)

let test_self_identifiers () =
  let s = mk () in
  let seen = ref [] in
  Sthread.spawn s ~hw:6 (fun () -> seen := (Sthread.self_id (), Sthread.self_hw ()) :: !seen);
  Sthread.spawn s ~hw:8 (fun () -> seen := (Sthread.self_id (), Sthread.self_hw ()) :: !seen);
  Sthread.run s;
  Alcotest.(check (list (pair int int))) "ids and pins" [ (1, 8); (0, 6) ] !seen

let test_live_threads () =
  let s = mk () in
  Sthread.spawn s ~hw:0 (fun () -> Sthread.work 10);
  Sthread.spawn s ~hw:2 (fun () -> Sthread.work 20);
  Alcotest.(check int) "two live" 2 (Sthread.live_threads s);
  Sthread.run s;
  Alcotest.(check int) "none live" 0 (Sthread.live_threads s)

let test_charge_and_flush () =
  let s = mk () in
  let m = Sthread.machine s in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:8 in
  let t_after_charges = ref (-1) in
  Sthread.spawn s ~hw:0 (fun () ->
      for i = 0 to 7 do
        Sthread.charge_read (a + i)
      done;
      t_after_charges := Sthread.time ();
      Sthread.flush ());
  Sthread.run s;
  Alcotest.(check int) "charges do not advance time" 0 !t_after_charges;
  let costs = (Machine.config m).Machine.costs in
  let pages = List.sort_uniq compare (List.init 8 (fun i -> (a + i) lsr 6)) in
  (* eight cold DRAM fetches, one page walk per page, plus the memory
     controller's per-line service (6 cycles) queueing the burst *)
  let dram_queue = 6 * (0 + 1 + 2 + 3 + 4 + 5 + 6 + 7) in
  Alcotest.(check int) "flush advances by total"
    ((8 * costs.Dps_machine.Costs.dram_local)
    + (List.length pages * costs.Dps_machine.Costs.walk_local)
    + dram_queue)
    (Sthread.now s)

let test_spawn_from_inside () =
  let s = mk () in
  let child_ran = ref false in
  Sthread.spawn s ~hw:0 (fun () ->
      Sthread.work 50;
      Sthread.spawn s ~hw:2 (fun () -> child_ran := true));
  Sthread.run s;
  Alcotest.(check bool) "child ran" true !child_ran

let test_exception_propagates () =
  let s = mk () in
  Sthread.spawn s ~hw:0 (fun () -> failwith "boom");
  Alcotest.check_raises "propagates" (Failure "boom") (fun () -> Sthread.run s)

let test_outside_context_rejected () =
  Alcotest.check_raises "no context" (Failure "Sthread: called from outside a simulated thread")
    (fun () -> ignore (Sthread.self_hw ()))

(* The charged operations are cold-aware: outside a simulated thread
   (cold setup) and inside an [at] callback they return without effect, so
   one data-structure path serves population and the measured run. The
   identity calls still refuse. *)
let test_charged_ops_cold () =
  let s = mk () in
  let m = Sthread.machine s in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:1 in
  let accesses () = Dps_simcore.Stats.get (Machine.stats m) "accesses" in
  let events = ref 0 in
  Sthread.set_tracer s (Some (fun _ -> incr events));
  let every_op () =
    Sthread.work 100;
    Sthread.read a;
    Sthread.read_racy a;
    Sthread.write a;
    Sthread.write_release a;
    Sthread.rmw a;
    Sthread.access_pipelined ~factor:4 ~kind:Machine.Write a;
    Sthread.charge_read a;
    Sthread.charge_read_racy a;
    Sthread.flush ();
    Sthread.sync_acquire 1;
    Sthread.sync_release 1
  in
  let before = accesses () in
  every_op ();
  let ran = ref false in
  Sthread.at s ~time:100 (fun () ->
      every_op ();
      ran := true);
  Sthread.run s;
  Alcotest.(check bool) "at callback ran" true !ran;
  Alcotest.(check int) "no access charged" before (accesses ());
  Alcotest.(check int) "no trace event" 0 !events;
  Alcotest.(check int) "no time charged" 100 (Sthread.now s);
  Alcotest.check_raises "self_id" (Failure "Sthread: called from outside a simulated thread")
    (fun () -> ignore (Sthread.self_id ()))

let test_access_pipelined () =
  (* pipelined accesses charge a fraction of the latency but keep the full
     coherence transition *)
  let serial =
    let s = mk () in
    let m = Sthread.machine s in
    let a = Machine.alloc m (Machine.On_node 0) ~lines:64 in
    Sthread.spawn s ~hw:0 (fun () ->
        for i = 0 to 63 do
          Sthread.read (a + i)
        done);
    Sthread.run s;
    Sthread.now s
  in
  let pipelined =
    let s = mk () in
    let m = Sthread.machine s in
    let a = Machine.alloc m (Machine.On_node 0) ~lines:64 in
    Sthread.spawn s ~hw:0 (fun () ->
        for i = 0 to 63 do
          Sthread.access_pipelined ~factor:8 ~kind:Machine.Read (a + i)
        done);
    Sthread.run s;
    Sthread.now s
  in
  Alcotest.(check bool)
    (Printf.sprintf "pipelined faster (%d vs %d)" pipelined serial)
    true
    (pipelined * 4 < serial)

let test_hyperthread_dilation_in_sim () =
  (* A thread running with its sibling active takes longer per work unit. *)
  let solo =
    let s = mk () in
    Sthread.spawn s ~hw:0 (fun () -> Sthread.work 1000);
    Sthread.run s;
    Sthread.now s
  in
  let shared =
    let s = mk () in
    Sthread.spawn s ~hw:0 (fun () -> Sthread.work 1000);
    Sthread.spawn s ~hw:1 (fun () -> Sthread.work 1000);
    Sthread.run s;
    Sthread.now s
  in
  Alcotest.(check int) "solo time" 1000 solo;
  Alcotest.(check bool) "sibling dilates" true (shared > 1000)

let test_alloc_policies () =
  let s = mk () in
  let m = Sthread.machine s in
  (* cold Spread: round-robin over sockets *)
  let spread = Dps_sthread.Alloc.create m ~cold:Dps_sthread.Alloc.Spread in
  let homes = List.init 8 (fun _ -> Machine.home_of m (Dps_sthread.Alloc.line spread)) in
  Alcotest.(check (list int)) "spread round-robin" [ 0; 1; 2; 3; 0; 1; 2; 3 ] homes;
  (* cold Node n: pinned *)
  let pinned = Dps_sthread.Alloc.create m ~cold:(Dps_sthread.Alloc.Node 2) in
  Alcotest.(check int) "pinned" 2 (Machine.home_of m (Dps_sthread.Alloc.line pinned));
  (* in simulation: homed on the allocating thread's socket *)
  let seen = ref (-1) in
  Sthread.spawn s ~hw:60 (fun () -> seen := Machine.home_of m (Dps_sthread.Alloc.line spread));
  Sthread.run s;
  Alcotest.(check int) "sim alloc node-local" 3 !seen

let test_kill_drops_thread () =
  let s = mk () in
  let m = Sthread.machine s in
  let steps = ref 0 in
  let exited = ref [] in
  Sthread.on_exit s (fun tid -> exited := tid :: !exited);
  Sthread.spawn s ~hw:0 (fun () ->
      for _ = 1 to 100 do
        Sthread.work 100;
        incr steps
      done);
  Sthread.run ~until:2_000 s;
  Alcotest.(check bool) "killed while live" true (Sthread.kill s ~tid:0);
  Sthread.run s;
  Alcotest.(check bool) "stopped early" true (!steps < 100);
  Alcotest.(check int) "none live" 0 (Sthread.live_threads s);
  Alcotest.(check (list int)) "exit hook fired" [ 0 ] !exited;
  Alcotest.(check bool) "kill dead thread" false (Sthread.kill s ~tid:0);
  (* hardware thread released: solo work is undilated again *)
  Alcotest.(check int) "hw released" 100 (Machine.work_cost m ~thread:1 100)

let test_exit_terminates () =
  let s = mk () in
  let after = ref false in
  let exited = ref [] in
  Sthread.on_exit s (fun tid -> exited := tid :: !exited);
  Sthread.spawn s ~hw:0 (fun () ->
      Sthread.work 10;
      if not !after then Sthread.exit ();
      after := true);
  Sthread.spawn s ~hw:2 (fun () -> Sthread.work 50);
  Sthread.run s;
  Alcotest.(check bool) "code after exit skipped" false !after;
  Alcotest.(check int) "none live" 0 (Sthread.live_threads s);
  Alcotest.(check (list int)) "both exits hooked" [ 1; 0 ] !exited

let test_kill_runs_protect_finalizers () =
  let s = mk () in
  let finalized = ref false in
  Sthread.spawn s ~hw:0 (fun () ->
      Fun.protect
        ~finally:(fun () -> finalized := true)
        (fun () ->
          while true do
            Sthread.work 100
          done));
  Sthread.run ~until:1_000 s;
  ignore (Sthread.kill s ~tid:0);
  Sthread.run s;
  Alcotest.(check bool) "finalizer ran" true !finalized

let test_fault_hook_stall_and_crash () =
  let s = mk () in
  (* stall thread 0's first suspension by 5000 cycles; crash thread 1 at
     its first memory access *)
  Sthread.set_fault_hook s
    (Some
       (fun ~tid ~now:_ ~tag ~cycles:_ ->
         match (tid, tag) with
         | 0, _ -> Some (Sthread.Stall 5_000)
         | 1, Sthread.Access_op (_, _) -> Some Sthread.Crash
         | _ -> None));
  let t0_done = ref (-1) in
  let t1_accesses = ref 0 in
  Sthread.spawn s ~hw:0 (fun () ->
      Sthread.work 100;
      t0_done := Sthread.time ());
  let m = Sthread.machine s in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:4 in
  Sthread.spawn s ~hw:2 (fun () ->
      Sthread.read a;
      incr t1_accesses;
      Sthread.read (a + 1);
      incr t1_accesses);
  Sthread.run s;
  Alcotest.(check int) "stall added to cost" 5_100 !t0_done;
  Alcotest.(check int) "crashed at first access" 0 !t1_accesses;
  Alcotest.(check int) "none live" 0 (Sthread.live_threads s)

(* --- blocking, wakeups, timers ----------------------------------------- *)

let test_park_unpark () =
  let s = mk () in
  let resumed_at = ref (-1) in
  Sthread.spawn s ~hw:0 (fun () ->
      Sthread.park ();
      resumed_at := Sthread.time ());
  Sthread.at s ~time:500 (fun () -> ignore (Sthread.unpark s ~tid:0));
  Sthread.run s;
  Alcotest.(check int) "resumed at the unpark" 500 !resumed_at;
  Alcotest.(check bool) "unpark of dead thread" false (Sthread.unpark s ~tid:0)

let test_no_lost_wakeup () =
  (* the unpark lands while the target is still running: the permit is
     remembered and the next park returns without blocking *)
  let s = mk () in
  let resumed_at = ref (-1) in
  Sthread.spawn s ~hw:0 (fun () ->
      Sthread.work 100;
      Sthread.park ();
      resumed_at := Sthread.time ());
  Sthread.at s ~time:10 (fun () -> ignore (Sthread.unpark s ~tid:0));
  Sthread.run s;
  Alcotest.(check int) "permit consumed, no block" 100 !resumed_at

let test_waitq_fifo () =
  let s = mk () in
  let q = Sthread.Waitq.create () in
  let order = ref [] in
  for i = 0 to 2 do
    Sthread.spawn s ~hw:(i * 2) (fun () ->
        (* distinct arrival times force the queue order 0, 1, 2 *)
        Sthread.work (10 * (i + 1));
        Sthread.Waitq.wait q;
        order := i :: !order)
  done;
  List.iter
    (fun tm -> Sthread.at s ~time:tm (fun () -> ignore (Sthread.Waitq.signal s q)))
    [ 1_000; 2_000; 3_000 ];
  Sthread.run s;
  Alcotest.(check (list int)) "FIFO wakeup order" [ 0; 1; 2 ] (List.rev !order)

let test_waitq_broadcast_and_dead_waiters () =
  let s = mk () in
  let q = Sthread.Waitq.create () in
  let woken = ref [] in
  for i = 0 to 2 do
    Sthread.spawn s ~hw:(i * 2) (fun () ->
        Sthread.work (10 * (i + 1));
        Sthread.Waitq.wait q;
        woken := i :: !woken)
  done;
  Sthread.run s;
  Alcotest.(check int) "three queued" 3 (Sthread.Waitq.waiters q);
  (* kill the oldest waiter: a signal must skip it and wake the next *)
  ignore (Sthread.kill s ~tid:0);
  Sthread.run s;
  Alcotest.(check bool) "signal skips the dead waiter" true (Sthread.Waitq.signal s q);
  Sthread.run s;
  Alcotest.(check (list int)) "thread 1 woken" [ 1 ] !woken;
  Alcotest.(check int) "broadcast wakes the rest" 1 (Sthread.Waitq.broadcast s q);
  Sthread.run s;
  Alcotest.(check (list int)) "all live waiters woken" [ 2; 1 ] !woken

let test_kill_parked_runs_finalizers () =
  let s = mk () in
  let finalized = ref false in
  Sthread.spawn s ~hw:0 (fun () ->
      Fun.protect ~finally:(fun () -> finalized := true) (fun () -> Sthread.park ()));
  Sthread.run s;
  ignore (Sthread.kill s ~tid:0);
  Sthread.run s;
  Alcotest.(check bool) "finalizer ran" true !finalized;
  Alcotest.(check int) "none live" 0 (Sthread.live_threads s)

let test_park_releases_hardware_thread () =
  (* a parked thread's hyperthread sibling runs undilated *)
  let s = mk () in
  let sibling_done = ref (-1) in
  Sthread.spawn s ~hw:0 (fun () -> Sthread.park ());
  Sthread.spawn s ~hw:1 (fun () ->
      Sthread.work 1000;
      sibling_done := Sthread.time ());
  Sthread.run s;
  Alcotest.(check int) "sibling undilated" 1000 !sibling_done;
  ignore (Sthread.unpark s ~tid:0);
  Sthread.run s;
  Alcotest.(check int) "parked thread drains" 0 (Sthread.live_threads s)

let test_park_for () =
  let s = mk () in
  let first = ref (false, -1) in
  Sthread.spawn s ~hw:0 (fun () ->
      (* no unpark in sight: the timeout fires *)
      let timed = Sthread.park_for 300 in
      first := (timed, Sthread.time ());
      (* an unpark beats the next timeout; the stale timeout of the first
         park must not wake this one early *)
      let timed2 = Sthread.park_for 10_000 in
      Alcotest.(check bool) "woken by unpark" false timed2;
      Alcotest.(check int) "at the unpark's time" 400 (Sthread.time ());
      (* and a third sleep times out again, undisturbed by leftovers *)
      let timed3 = Sthread.park_for 100 in
      Alcotest.(check bool) "timeout again" true timed3);
  Sthread.at s ~time:400 (fun () -> ignore (Sthread.unpark s ~tid:0));
  Sthread.run s;
  Alcotest.(check (pair bool int)) "first sleep timed out at 300" (true, 300) !first

(* A [park_for] timeout and another thread's [unpark] on the same cycle:
   the event queued first wins. Parker first, its timeout wakes it and the
   unpark leaves a permit; waker first, the unpark wakes it, the timeout
   finds it awake and leaves nothing. *)
let park_for_tie ~parker_first =
  let s = mk () in
  let parker_tid = if parker_first then 0 else 1 in
  let first = ref (false, -1) and second = ref (false, -1) in
  let parker () =
    let timed = Sthread.park_for 100 in
    first := (timed, Sthread.time ());
    let timed = Sthread.park_for 1_000 in
    second := (timed, Sthread.time ())
  in
  let waker () =
    Sthread.work 100;
    ignore (Sthread.unpark s ~tid:parker_tid)
  in
  if parker_first then begin
    Sthread.spawn s ~hw:0 parker;
    Sthread.spawn s ~hw:2 waker
  end
  else begin
    Sthread.spawn s ~hw:2 waker;
    Sthread.spawn s ~hw:0 parker
  end;
  Sthread.run s;
  (!first, !second)

let test_park_for_ties () =
  let pair = Alcotest.(pair bool int) in
  let first, second = park_for_tie ~parker_first:true in
  Alcotest.check pair "parker first: timed out" (true, 100) first;
  Alcotest.check pair "parker first: permit left" (false, 100) second;
  let first, second = park_for_tie ~parker_first:false in
  Alcotest.check pair "waker first: woken" (false, 100) first;
  Alcotest.check pair "waker first: no permit" (true, 1_100) second

let test_stale_timer_spares_park () =
  let s = mk () in
  let woken = ref [] in
  Sthread.spawn s ~hw:0 (fun () ->
      ignore (Sthread.park_for 1_000);
      woken := Sthread.time () :: !woken;
      (* the first park's timer is still queued for cycle 1000 *)
      Sthread.park ();
      woken := Sthread.time () :: !woken);
  Sthread.at s ~time:100 (fun () -> ignore (Sthread.unpark s ~tid:0));
  Sthread.at s ~time:5_000 (fun () -> ignore (Sthread.unpark s ~tid:0));
  Sthread.run s;
  Alcotest.(check (list int)) "woken only by unparks" [ 100; 5_000 ] (List.rev !woken)

let test_kill_with_resume_pending () =
  let s = mk () in
  let finalized_at = ref (-1) and exited_at = ref (-1) and reached = ref false in
  Sthread.on_exit s (fun _ -> exited_at := Sthread.now s);
  Sthread.spawn s ~hw:0 (fun () ->
      Fun.protect
        ~finally:(fun () -> finalized_at := Sthread.time ())
        (fun () ->
          Sthread.work 500;
          reached := true));
  Sthread.at s ~time:100 (fun () -> ignore (Sthread.kill s ~tid:0));
  Sthread.run s;
  Alcotest.(check bool) "never resumed" false !reached;
  Alcotest.(check int) "finalizer at the resume cycle" 500 !finalized_at;
  Alcotest.(check int) "retired at the resume cycle" 500 !exited_at

let test_park_for_saturates () =
  let s = mk () in
  let result = ref (true, -1) in
  Sthread.spawn s ~hw:0 (fun () ->
      Sthread.work 10;
      let timed = Sthread.park_for max_int in
      result := (timed, Sthread.time ()));
  Sthread.at s ~time:100 (fun () -> ignore (Sthread.unpark s ~tid:0));
  Sthread.run s;
  Alcotest.(check (pair bool int)) "woken by the unpark" (false, 100) !result

(* --- allocation per scheduling point ----------------------------------- *)

(* Minor words allocated per call of [op], over [calls] calls in one
   simulated thread (a partner thread, if any, runs alongside). *)
let words_per_call ?partner op =
  let calls = 100_000 in
  let s = mk () in
  let m = Sthread.machine s in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:1 in
  let words = ref nan in
  Sthread.spawn s ~hw:0 (fun () ->
      (* the first call warms the line and any lazy state *)
      op a;
      let w0 = Gc.minor_words () in
      for _ = 1 to calls do
        op a
      done;
      words := (Gc.minor_words () -. w0) /. float_of_int calls);
  Option.iter (fun f -> Sthread.spawn s ~hw:2 (fun () -> f s)) partner;
  Sthread.run s;
  !words

(* A suspension allocates the runtime's continuation and nothing else:
   2 words on OCaml 5.1, 4 per park/unpark round trip. The bounds leave
   room for a runtime whose continuation is a word larger, but not for an
   [Access_op] tag built per access (3 words) or a boxed suspension. *)
let test_allocation_per_scheduling_point () =
  let budget name bound op =
    let w = words_per_call op in
    if w > bound then Alcotest.failf "%s: %.2f minor words per call, budget %.0f" name w bound
  in
  budget "read" 4.0 Sthread.read;
  budget "write" 4.0 Sthread.write;
  budget "rmw" 4.0 Sthread.rmw;
  budget "work" 4.0 (fun _ -> Sthread.work 10);
  budget "yield" 4.0 (fun _ -> Sthread.yield ());
  budget "charge_read + flush" 4.0 (fun a ->
      Sthread.charge_read a;
      Sthread.flush ());
  (* a park/unpark round trip: the parker (thread 0) parks, its partner
     unparks it and yields; both suspensions count *)
  let w =
    words_per_call
      ~partner:(fun s ->
        while Sthread.unpark s ~tid:0 do
          Sthread.yield ()
        done)
      (fun _ -> Sthread.park ())
  in
  if w > 8.0 then Alcotest.failf "park/unpark: %.2f minor words per round trip, budget 8" w

(* Nothing the scheduler keeps outlives a finished thread: what its
   closure captured is garbage once [run] returns. *)
let spawn_capturing s w =
  let data = Bytes.make 64 'x' in
  Weak.set w 0 (Some data);
  Sthread.spawn s ~hw:0 (fun () ->
      Sthread.work 10;
      ignore (Sthread.park_for 1_000);
      Sthread.park ();
      ignore (Sys.opaque_identity data))
[@@inline never]

let test_finished_thread_collectable () =
  let s = mk () in
  let w = Weak.create 1 in
  spawn_capturing s w;
  Sthread.at s ~time:100 (fun () -> ignore (Sthread.unpark s ~tid:0));
  Sthread.at s ~time:200 (fun () -> ignore (Sthread.unpark s ~tid:0));
  Sthread.run s;
  Gc.full_major ();
  Alcotest.(check bool) "captured data collected" false (Weak.check w 0);
  Alcotest.(check int) "none live" 0 (Sthread.live_threads s)

let test_at_events () =
  let s = mk () in
  let log = ref [] in
  Sthread.at s ~time:200 (fun () -> log := 2 :: !log);
  Sthread.at s ~time:100 (fun () ->
      log := 1 :: !log;
      (* events may schedule further events *)
      Sthread.at s ~time:150 (fun () -> log := 3 :: !log));
  Sthread.run s;
  Alcotest.(check (list int)) "time order" [ 1; 3; 2 ] (List.rev !log);
  Alcotest.check_raises "past time rejected" (Invalid_argument "Sthread.at: time in the past")
    (fun () -> Sthread.at s ~time:(Sthread.now s - 1) (fun () -> ()))

let suite =
  [
    ("park and unpark", `Quick, test_park_unpark);
    ("no lost wakeup", `Quick, test_no_lost_wakeup);
    ("waitq FIFO order", `Quick, test_waitq_fifo);
    ("waitq broadcast and dead waiters", `Quick, test_waitq_broadcast_and_dead_waiters);
    ("kill parked thread", `Quick, test_kill_parked_runs_finalizers);
    ("park releases hardware thread", `Quick, test_park_releases_hardware_thread);
    ("park_for timeout", `Quick, test_park_for);
    ("at events", `Quick, test_at_events);
    ("park_for ties with unpark", `Quick, test_park_for_ties);
    ("stale timer spares a park", `Quick, test_stale_timer_spares_park);
    ("kill with resume pending", `Quick, test_kill_with_resume_pending);
    ("park_for max_int", `Quick, test_park_for_saturates);
    ("allocation per scheduling point", `Quick, test_allocation_per_scheduling_point);
    ("finished thread collectable", `Quick, test_finished_thread_collectable);
    ("single thread runs", `Quick, test_single_thread_runs);
    ("kill drops thread", `Quick, test_kill_drops_thread);
    ("exit terminates", `Quick, test_exit_terminates);
    ("kill runs finalizers", `Quick, test_kill_runs_protect_finalizers);
    ("fault hook stall and crash", `Quick, test_fault_hook_stall_and_crash);
    ("alloc policies", `Quick, test_alloc_policies);
    ("threads interleave", `Quick, test_threads_interleave);
    ("memory access charges time", `Quick, test_memory_access_charges_time);
    ("deterministic schedule", `Quick, test_deterministic_schedule);
    ("run until", `Quick, test_run_until);
    ("push below a peeked event", `Quick, test_push_below_peeked_event);
    ("self identifiers", `Quick, test_self_identifiers);
    ("live threads", `Quick, test_live_threads);
    ("charge and flush", `Quick, test_charge_and_flush);
    ("spawn from inside", `Quick, test_spawn_from_inside);
    ("exception propagates", `Quick, test_exception_propagates);
    ("outside context rejected", `Quick, test_outside_context_rejected);
    ("charged ops cold", `Quick, test_charged_ops_cold);
    ("access pipelined", `Quick, test_access_pipelined);
    ("hyperthread dilation", `Quick, test_hyperthread_dilation_in_sim);
  ]
