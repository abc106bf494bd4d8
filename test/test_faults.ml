(* Chaos tests: fault injection (Dps_faults) against the self-healing DPS
   runtime. The properties under test are the robustness acceptance
   criteria: no hang within a bounded simulated-cycle budget, no lost (or
   duplicated) acknowledged operation, deterministic replay of the healing
   counters, and liveness after client_done-without-drain. *)

module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Faults = Dps_faults

type part_data = { cells : int array; mutable ops_run : int }

let budget = 50_000_000
let mk_sched () = Sthread.create (Machine.create Machine.config_default)

let mk_dps ?(self_healing = false) ?await_timeout sched =
  Dps.create sched ~nclients:20 ~locality_size:10
    ~hash:(fun k -> k)
    ~self_healing ?await_timeout
    ~mk_data:(fun (_ : Dps.partition_info) -> { cells = Array.make 64 0; ops_run = 0 })
    ()

let bump cell (d : part_data) =
  d.cells.(cell) <- d.cells.(cell) + 1;
  d.ops_run <- d.ops_run + 1;
  d.cells.(cell)

let applied_total dps =
  let t = ref 0 in
  for pid = 0 to Dps.npartitions dps - 1 do
    t := !t + Array.fold_left ( + ) 0 (Dps.partition_data dps pid).cells
  done;
  !t

let acked_total = Array.fold_left ( + ) 0

let check_no_hang sched =
  Alcotest.(check int) "no hang: all threads finished" 0 (Sthread.live_threads sched);
  Alcotest.(check bool) "finished within cycle budget" true (Sthread.now sched < budget)

(* One chaos run: every client issues [per] synchronous delegated-or-local
   ops; one client of each locality is crashed mid-run at a scheduled,
   deterministic time. Returns everything a replay must reproduce. *)
let chaos_run ~seed () =
  let sched = mk_sched () in
  let dps = mk_dps ~self_healing:true ~await_timeout:15_000 sched in
  let plan = Faults.install sched ~seed (Faults.spec ()) in
  (* one victim per locality: client 3 (partition 0), client 17 (partition 1) *)
  Faults.schedule_crash plan ~tid:3 ~at:5_000;
  Faults.schedule_crash plan ~tid:17 ~at:9_000;
  let per = 60 in
  let acked = Array.make 20 0 in
  for c = 0 to 19 do
    Sthread.spawn sched ~hw:(Dps.client_hw dps c) (fun () ->
        Dps.attach dps ~client:c;
        for i = 1 to per do
          ignore (Dps.call dps ~key:(i mod 4) (bump (i mod 4)));
          acked.(c) <- acked.(c) + 1
        done;
        Dps.client_done dps;
        Dps.drain dps)
  done;
  Sthread.run ~until:budget sched;
  (sched, dps, plan, acked)

let test_chaos_crash_every_locality () =
  let sched, dps, plan, acked = chaos_run ~seed:42L () in
  check_no_hang sched;
  Alcotest.(check int) "both scheduled crashes fired" 2 (Faults.crashes_injected plan);
  Alcotest.(check (list int)) "victims in order" [ 3; 17 ] (Faults.crashed plan);
  let h = Dps.health dps in
  Alcotest.(check int) "runtime saw both crashes" 2 h.Dps.crashes;
  (* Exactly-once for acknowledged ops: a crashed client may have had at
     most one unacknowledged operation in flight, which is allowed to have
     been applied (at-most-once) — nothing else may be lost or doubled. *)
  let acked = acked_total acked and applied = applied_total dps in
  Alcotest.(check bool) "no acked op lost" true (applied >= acked);
  Alcotest.(check bool) "no op doubled" true (applied <= acked + 2);
  (* survivors all finished their full quota *)
  Alcotest.(check bool) "survivors acked full quota" true (acked >= 18 * 60)

let test_chaos_deterministic_replay () =
  let fingerprint ~seed =
    let sched, dps, plan, acked = chaos_run ~seed () in
    let h = Dps.health dps in
    ( Sthread.now sched,
      applied_total dps,
      acked_total acked,
      ( h.Dps.takeovers,
        h.Dps.adoptions,
        h.Dps.retries,
        h.Dps.failovers,
        h.Dps.crashes,
        h.Dps.lock_breaks ),
      (Array.to_list h.Dps.pending_depth, Array.to_list h.Dps.dead_partitions),
      (Faults.crashes_injected plan, Faults.stalls_injected plan, Faults.delays_injected plan) )
  in
  let a = fingerprint ~seed:7L and b = fingerprint ~seed:7L in
  Alcotest.(check bool) "same seed, identical end time, totals and health" true (a = b)

let test_stall_and_delay_chaos_is_lossless () =
  let run () =
    let sched = mk_sched () in
    let dps = mk_dps ~self_healing:true ~await_timeout:15_000 sched in
    let plan =
      Faults.install sched ~seed:11L
        (Faults.spec ~stall_prob:0.002 ~stall_cycles:3_000 ~delay_prob:0.01 ~delay_cycles:500 ())
    in
    let per = 30 in
    for c = 0 to 19 do
      Sthread.spawn sched ~hw:(Dps.client_hw dps c) (fun () ->
          Dps.attach dps ~client:c;
          for i = 1 to per do
            ignore (Dps.call dps ~key:(i mod 4) (bump (i mod 4)))
          done;
          Dps.client_done dps;
          Dps.drain dps)
    done;
    Sthread.run ~until:budget sched;
    check_no_hang sched;
    Alcotest.(check int) "no crashes injected" 0 (Faults.crashes_injected plan);
    Alcotest.(check bool) "chaos actually happened" true
      (Faults.stalls_injected plan + Faults.delays_injected plan > 0);
    (* no crash => exactly-once, bit for bit *)
    Alcotest.(check int) "every op applied exactly once" (20 * per) (applied_total dps);
    (Sthread.now sched, Dps.health dps)
  in
  let t1, h1 = run () and t2, h2 = run () in
  Alcotest.(check int) "replay: same end time" t1 t2;
  Alcotest.(check int) "replay: same takeover count" h1.Dps.takeovers h2.Dps.takeovers;
  Alcotest.(check int) "replay: same retries" h1.Dps.retries h2.Dps.retries

let test_whole_locality_crash_fails_over () =
  let sched = mk_sched () in
  let dps = mk_dps ~self_healing:true ~await_timeout:10_000 sched in
  let plan = Faults.install sched ~seed:3L (Faults.spec ()) in
  (* kill every client of locality 1, staggered early in the run *)
  for c = 10 to 19 do
    Faults.schedule_crash plan ~tid:c ~at:(4_000 + (400 * (c - 10)))
  done;
  let per = 40 in
  let acked = Array.make 20 0 in
  for c = 0 to 19 do
    Sthread.spawn sched ~hw:(Dps.client_hw dps c) (fun () ->
        Dps.attach dps ~client:c;
        (* locality 0 targets partition 1 (soon dead); locality 1 targets
           partition 0, so its crashes also abandon in-flight delegations *)
        let key = 1 - (c / 10) in
        for _ = 1 to per do
          ignore (Dps.call dps ~key (bump key));
          acked.(c) <- acked.(c) + 1
        done;
        Dps.client_done dps;
        Dps.drain dps)
  done;
  Sthread.run ~until:budget sched;
  check_no_hang sched;
  let h = Dps.health dps in
  Alcotest.(check int) "all ten victims crashed" 10 h.Dps.crashes;
  Alcotest.(check int) "one partition failed over" 1 h.Dps.failovers;
  Alcotest.(check bool) "partition 1 marked dead" true h.Dps.dead_partitions.(1);
  Alcotest.(check bool) "partition 0 alive" false h.Dps.dead_partitions.(0);
  (* after failover the dead partition's buckets resolve to a live one *)
  Alcotest.(check int) "key 1 retargeted to partition 0" 0 (Dps.partition_of_key dps 1);
  (* ops applied pre-failover live in partition 1's structure, later ones in
     partition 0's — conservation holds across both *)
  let acked = acked_total acked and applied = applied_total dps in
  Alcotest.(check bool) "no acked op lost" true (applied >= acked);
  Alcotest.(check bool) "no op doubled" true (applied <= acked + 10);
  Alcotest.(check bool) "survivors finished their quota" true (acked >= 10 * per)

let test_client_done_without_drain_is_adopted () =
  (* Regression: a client that calls client_done and returns without
     draining used to orphan its serving share — senders delegating into
     those rings hung forever. Share adoption is always on (independent of
     self_healing), so the default runtime must pass. *)
  let sched = mk_sched () in
  let dps = mk_dps sched in
  for c = 0 to 19 do
    Sthread.spawn sched ~hw:(Dps.client_hw dps c) (fun () ->
        Dps.attach dps ~client:c;
        if c = 15 then begin
          (* a few local ops so peers are attached, then leave abruptly *)
          for _ = 1 to 5 do
            ignore (Dps.call dps ~key:1 (bump 1))
          done;
          Dps.client_done dps
          (* no drain: this thread's serving share must be adopted *)
        end
        else begin
          let key = if c < 10 then 1 else 0 in
          for _ = 1 to 20 do
            ignore (Dps.call dps ~key (bump key))
          done;
          Dps.client_done dps;
          Dps.drain dps
        end)
  done;
  Sthread.run ~until:budget sched;
  check_no_hang sched;
  let h = Dps.health dps in
  Alcotest.(check bool) "share was adopted" true (h.Dps.adoptions >= 1);
  Alcotest.(check int) "no crash recorded for a clean exit" 0 h.Dps.crashes;
  Alcotest.(check int) "every op applied exactly once" ((19 * 20) + 5) (applied_total dps)

let test_double_attach_rejected () =
  let sched = mk_sched () in
  let dps = mk_dps sched in
  let got = ref "" in
  Sthread.spawn sched
    ~hw:(Dps.client_hw dps 0)
    (fun () ->
      Dps.attach dps ~client:0;
      (try Dps.attach dps ~client:1 with Failure m -> got := m);
      Dps.client_done dps);
  Sthread.run sched;
  Alcotest.(check string) "second attach fails" "Dps: thread already attached" !got

let test_detach_hands_share () =
  let sched = mk_sched () in
  let dps = mk_dps ~self_healing:true sched in
  for c = 0 to 19 do
    Sthread.spawn sched ~hw:(Dps.client_hw dps c) (fun () ->
        Dps.attach dps ~client:c;
        if c = 15 then begin
          for _ = 1 to 5 do
            ignore (Dps.call dps ~key:1 (bump 1))
          done;
          Dps.client_done dps;
          Dps.detach dps
        end
        else begin
          let key = if c < 10 then 1 else 0 in
          for _ = 1 to 20 do
            ignore (Dps.call dps ~key (bump key))
          done;
          Dps.client_done dps;
          Dps.drain dps
        end)
  done;
  Sthread.run ~until:budget sched;
  check_no_hang sched;
  let h = Dps.health dps in
  Alcotest.(check bool) "detach handed the share over" true (h.Dps.adoptions >= 1);
  Alcotest.(check int) "detach is not a crash" 0 h.Dps.crashes;
  Alcotest.(check int) "every op applied exactly once" ((19 * 20) + 5) (applied_total dps)

let test_health_idle_snapshot () =
  let sched = mk_sched () in
  let dps = mk_dps sched in
  let h = Dps.health dps in
  Alcotest.(check int) "two partitions tracked" 2 (Array.length h.Dps.pending_depth);
  Alcotest.(check (list int)) "nothing pending" [ 0; 0 ] (Array.to_list h.Dps.pending_depth);
  Alcotest.(check bool) "no partition dead" true
    (Array.for_all not h.Dps.dead_partitions);
  List.iter
    (fun (name, v) -> Alcotest.(check int) name 0 v)
    [
      ("takeovers", h.Dps.takeovers);
      ("adoptions", h.Dps.adoptions);
      ("retries", h.Dps.retries);
      ("failovers", h.Dps.failovers);
      ("crashes", h.Dps.crashes);
      ("lock breaks", h.Dps.lock_breaks);
    ]

(* A stall past every horizon parks its thread for good: the resume time
   saturates at [max_int], which [run] reads as "nothing left", instead of
   wrapping to a negative time that would run first, in the past. *)
let test_stall_past_every_horizon () =
  let sched = mk_sched () in
  let plan = Faults.install sched ~seed:5L (Faults.spec ()) in
  Faults.schedule_stall plan ~tid:0 ~at:0 ~cycles:max_int;
  let stalled_resumed = ref false and times = ref [] in
  Sthread.spawn sched ~hw:0 (fun () ->
      Sthread.work 10;
      stalled_resumed := true);
  Sthread.spawn sched ~hw:2 (fun () ->
      for _ = 1 to 50 do
        Sthread.work 100;
        times := Sthread.time () :: !times
      done);
  Sthread.run sched;
  let times = List.rev !times in
  Alcotest.(check int) "stall injected" 1 (Faults.stalls_injected plan);
  Alcotest.(check bool) "stalled thread never resumes" false !stalled_resumed;
  Alcotest.(check int) "only the stalled thread is live" 1 (Sthread.live_threads sched);
  Alcotest.(check int) "the other ran to completion" 50 (List.length times);
  Alcotest.(check (list int)) "now never decreases" (List.sort compare times) times;
  Alcotest.(check int) "now is the last step" (List.nth times 49) (Sthread.now sched)

let suite =
  [
    ("chaos: crash one client per locality", `Quick, test_chaos_crash_every_locality);
    ("chaos: deterministic replay", `Quick, test_chaos_deterministic_replay);
    ("chaos: stalls and delays are lossless", `Quick, test_stall_and_delay_chaos_is_lossless);
    ("whole-locality crash fails over", `Quick, test_whole_locality_crash_fails_over);
    ("client_done without drain is adopted", `Quick, test_client_done_without_drain_is_adopted);
    ("double attach rejected", `Quick, test_double_attach_rejected);
    ("detach hands share to a peer", `Quick, test_detach_hands_share);
    ("health: idle snapshot", `Quick, test_health_idle_snapshot);
    ("stall past every horizon", `Quick, test_stall_past_every_horizon);
  ]
