(* Tests for lib/check, and — through it — for everything else: schedule
   exploration with seeded replay and shrinking, the WGL linearizability
   oracle against sequential reference models, and the happens-before race
   detector, swept over every lib/ds implementation and the DPS runtime.

   The mutation self-tests flip the test-only failpoints in ll_michael and
   dps and assert the checkers catch the planted bugs within a bounded
   schedule budget, with bit-for-bit replay of the minimized schedule. *)

module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Prng = Dps_simcore.Prng
module Schedule = Dps_check.Schedule
module Lin = Dps_check.Lin
module Race = Dps_check.Race
module Check = Dps_check.Check
module Faults = Dps_faults

module type SET = Dps_ds.Set_intf.SET

let sets : (module SET) list =
  [
    (module Dps_ds.Ll_coarse);
    (module Dps_ds.Ll_lazy);
    (module Dps_ds.Ll_michael);
    (module Dps_ds.Ll_optik);
    (module Dps_ds.Rlu_list);
    (module Dps_ds.Bst_tk);
    (module Dps_ds.Bst_ellen);
    (module Dps_ds.Bst_internal_lf);
    (module Dps_ds.Bst_bronson);
    (module Dps_ds.Sl_herlihy);
    (module Dps_ds.Sl_fraser);
    (module Dps_ds.Hashtable);
    (module Dps_parsec.Parsec_list);
  ]

(* --- linearizability oracle: hand-built histories --- *)

let ev id tid key op res inv ret = { Lin.id; tid; key; op; res; inv; ret }

let test_wgl_accepts_reordering () =
  (* lookup=absent overlapping an insert: legal iff the lookup linearizes
     first, which WGL must find *)
  let h =
    [ ev 0 0 7 Lin.Lookup Lin.absent 0 5; ev 1 1 7 (Lin.Insert 70) 1 1 6 ]
  in
  match Lin.check (module Lin.Set_spec) h with
  | Lin.Linearizable (Some 70) -> ()
  | Lin.Linearizable _ -> Alcotest.fail "wrong witness state"
  | Lin.Nonlinearizable m -> Alcotest.fail m
  | Lin.Exhausted -> Alcotest.fail "exhausted"

let test_wgl_rejects_lost_update () =
  (* two non-overlapping successful inserts of the same key: the second
     must have returned false *)
  let h = [ ev 0 0 7 (Lin.Insert 70) 1 0 1; ev 1 1 7 (Lin.Insert 71) 1 2 3 ] in
  match Lin.check (module Lin.Set_spec) h with
  | Lin.Nonlinearizable _ -> ()
  | Lin.Linearizable _ -> Alcotest.fail "accepted a lost update"
  | Lin.Exhausted -> Alcotest.fail "exhausted"

let test_wgl_queue_order () =
  let enq id v inv ret = ev id 0 0 (Lin.Push v) 0 inv ret in
  let deq id v inv ret = ev id 0 0 Lin.Pop v inv ret in
  (match Lin.check (module Lin.Queue_spec) [ enq 0 1 0 1; enq 1 2 2 3; deq 2 1 4 5 ] with
  | Lin.Linearizable _ -> ()
  | _ -> Alcotest.fail "rejected FIFO order");
  match Lin.check (module Lin.Queue_spec) [ enq 0 1 0 1; enq 1 2 2 3; deq 2 2 4 5 ] with
  | Lin.Nonlinearizable _ -> ()
  | _ -> Alcotest.fail "accepted LIFO behaviour from a queue"

let test_wgl_budget_exhaustion () =
  let h = [ ev 0 0 0 (Lin.Push 1) 0 0 3; ev 1 1 0 (Lin.Push 2) 0 1 4 ] in
  match Lin.check (module Lin.Queue_spec) ~budget:0 h with
  | Lin.Exhausted -> ()
  | _ -> Alcotest.fail "budget not enforced"

let test_wgl_partitioned () =
  (* a violation on one key is found even among many other clean keys *)
  let h =
    List.concat_map
      (fun k -> [ ev (2 * k) 0 k (Lin.Insert k) 1 (4 * k) ((4 * k) + 1) ])
      [ 1; 2; 3; 4 ]
    @ [ ev 100 1 3 (Lin.Insert 3) 1 100 101 ]
  in
  match Lin.check_partitioned (module Lin.Set_spec) h with
  | `Violation m ->
      let contains s sub =
        let n = String.length s and k = String.length sub in
        let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names the key" true (contains m "key 3")
  | `Ok _ -> Alcotest.fail "missed the per-key violation"
  | `Exhausted _ -> Alcotest.fail "exhausted"

(* --- race detector: synthetic event streams --- *)

let feed evs =
  let r = Race.create () in
  List.iter (Race.on_event r) evs;
  r

let acc tid cls addr = Sthread.T_access { tid; cls; addr }

let test_race_unsynchronized () =
  let r = feed [ acc 0 Sthread.Store 100; acc 1 Sthread.Store 100 ] in
  Alcotest.(check int) "write/write race" 1 (Race.race_count r);
  let r = feed [ acc 0 Sthread.Store 100; acc 1 Sthread.Load 100 ] in
  Alcotest.(check int) "read/write race" 1 (Race.race_count r)

let test_race_message_passing () =
  (* data store, releasing flag store || flag load, data load: the
     reads-from edge on the flag line orders the data accesses *)
  let r =
    feed
      [
        acc 0 Sthread.Store 100;
        acc 0 Sthread.Release_store 200;
        acc 1 Sthread.Load 200;
        acc 1 Sthread.Load 100;
        acc 1 Sthread.Store 100;
      ]
  in
  Alcotest.(check int) "publication orders data" 0 (Race.race_count r)

let test_race_rmw_is_sync () =
  (* lines maintained only by rmw never race, and rmw carries edges *)
  let r =
    feed
      [
        acc 0 Sthread.Store 100;
        acc 0 Sthread.Atomic 200;
        acc 1 Sthread.Atomic 200;
        acc 1 Sthread.Store 100;
      ]
  in
  Alcotest.(check int) "rmw chain orders data" 0 (Race.race_count r)

let test_race_racy_read_suppressed () =
  let r = feed [ acc 0 Sthread.Store 100; acc 1 Sthread.Racy_load 100 ] in
  Alcotest.(check int) "annotated read not reported" 0 (Race.race_count r);
  Alcotest.(check int) "but counted" 1 (Race.racy_reads r)

let test_race_spawn_and_unpark_edges () =
  let r =
    feed
      [
        acc 0 Sthread.Store 100;
        Sthread.T_spawn { parent = Some 0; child = 1 };
        acc 1 Sthread.Store 100;
      ]
  in
  Alcotest.(check int) "spawn edge" 0 (Race.race_count r);
  let r =
    feed
      [
        acc 0 Sthread.Store 100;
        Sthread.T_unpark { src = Some 0; dst = 1 };
        Sthread.T_wake { tid = 1 };
        acc 1 Sthread.Store 100;
      ]
  in
  Alcotest.(check int) "unpark edge" 0 (Race.race_count r);
  let r =
    feed
      [
        acc 0 Sthread.Store 100;
        Sthread.T_wake { tid = 1 };  (* no matching unpark: no edge *)
        acc 1 Sthread.Store 100;
      ]
  in
  Alcotest.(check int) "wake without unpark is not an edge" 1 (Race.race_count r)

(* --- schedule: traces, replay, shrinking --- *)

let test_trace_round_trip () =
  let tr = [ { Schedule.point = 3; delay = 40 }; { Schedule.point = 17; delay = 999 } ] in
  Alcotest.(check bool) "round trip" true
    (Schedule.trace_of_string (Schedule.trace_to_string tr) = tr);
  Alcotest.(check bool) "empty" true (Schedule.trace_of_string "" = [])

let test_shrink_to_culprit () =
  let tr = List.init 8 (fun i -> { Schedule.point = i * 5; delay = 10 }) in
  let still_fails tr = List.exists (fun (d : Schedule.decision) -> d.point = 15) tr in
  let min = Schedule.shrink ~max_tries:200 ~still_fails tr in
  Alcotest.(check int) "single culprit survives" 1 (List.length min);
  Alcotest.(check int) "the right one" 15 (List.hd min).Schedule.point

(* A small real scenario: end time is a fingerprint of the interleaving. *)
let fingerprint ctl =
  let m = Machine.create ~seed:7L Machine.config_default in
  let s = Sthread.create m in
  Schedule.attach ctl s;
  let alloc = Alloc.create m ~cold:Alloc.Spread in
  let lines = Array.init 4 (fun _ -> Alloc.line alloc) in
  for tid = 0 to 3 do
    Sthread.spawn s ~hw:(tid * 16) (fun () ->
        for i = 0 to 19 do
          Sthread.rmw lines.((tid + i) mod 4)
        done)
  done;
  Sthread.run s;
  Sthread.now s

let test_replay_bit_for_bit () =
  let ctl = Schedule.make ~seed:99L (Schedule.Random_preempt { prob = 0.2; max_delay = 500 }) in
  let t1 = fingerprint ctl in
  let tr = Schedule.trace ctl in
  Alcotest.(check bool) "perturbations recorded" true (tr <> []);
  let ctl2 = Schedule.make ~seed:0L (Schedule.Replay tr) in
  let t2 = fingerprint ctl2 in
  Alcotest.(check int) "replayed end time identical" t1 t2;
  Alcotest.(check bool) "replay re-records the same trace" true (Schedule.trace ctl2 = tr)

(* --- differential sweeps: every set vs the sequential model --- *)

(* Concurrent keyed ops through the history recorder, then at quiescence a
   recorded audit lookup per key — sealing the final state so the witness
   linearization must agree with the structure's actual contents. *)
let set_scenario ?(threads = 4) ?(per = 6) ?(key_range = 4) (module S : SET) ctl =
  Check.with_sim ctl (fun sim ->
      let t = S.create sim.Check.alloc in
      let r = Lin.recorder () in
      for tid = 0 to threads - 1 do
        Sthread.spawn sim.Check.sched ~hw:(tid * 8 mod 80) (fun () ->
            let p = Sthread.self_prng () in
            for _ = 1 to per do
              let key = 1 + Prng.int p key_range in
              match Prng.int p 3 with
              | 0 ->
                  ignore
                    (Lin.record r ~key (Lin.Insert key) (fun () ->
                         if S.insert t ~key ~value:key then 1 else 0))
              | 1 ->
                  ignore (Lin.record r ~key Lin.Remove (fun () -> if S.remove t key then 1 else 0))
              | _ ->
                  ignore
                    (Lin.record r ~key Lin.Lookup (fun () ->
                         match S.lookup t key with Some v -> v | None -> Lin.absent))
            done)
      done;
      Sthread.run sim.Check.sched;
      match S.check_invariants t with
      | exception Failure m -> Some ("invariant: " ^ m)
      | () -> (
          for key = 1 to key_range do
            ignore
              (Lin.record r ~key Lin.Lookup (fun () ->
                   match S.lookup t key with Some v -> v | None -> Lin.absent))
          done;
          match Lin.check_partitioned (module Lin.Set_spec) (Lin.events r) with
          | `Violation m -> Some m
          | `Exhausted key -> Some (Printf.sprintf "WGL budget exhausted on key %d" key)
          | `Ok _ -> None))

let sweep_set (module S : SET) () =
  match Check.explore ~name:S.name ~budget:30 (set_scenario (module S)) with
  | Ok () -> ()
  | Error f -> Alcotest.fail f.Check.message

(* --- queue / stack: strict FIFO / LIFO specs --- *)

let seq_scenario ~name:_ ~(push : int -> unit) ~(pop : unit -> int option) record_ops sim_sched r
    =
  let threads = 3 and per = 4 in
  for tid = 0 to threads - 1 do
    Sthread.spawn sim_sched ~hw:(tid * 16 mod 80) (fun () ->
        for i = 0 to per - 1 do
          let v = (100 * (tid + 1)) + i in
          ignore (Lin.record r (Lin.Push v) (fun () -> push v; 0));
          if i mod 2 = 1 then
            ignore
              (Lin.record r Lin.Pop (fun () ->
                   match pop () with Some x -> x | None -> Lin.absent))
        done)
  done;
  Sthread.run sim_sched;
  (* drain at quiescence: seals the final state into the history *)
  let rec drain () =
    let got = Lin.record r Lin.Pop (fun () -> match pop () with Some x -> x | None -> Lin.absent) in
    if got <> Lin.absent then drain ()
  in
  drain ();
  record_ops ()

let queue_scenario ctl =
  Check.with_sim ctl (fun sim ->
      let q = Dps_ds.Queue_ms.create sim.Check.alloc in
      let r = Lin.recorder () in
      seq_scenario ~name:"queue"
        ~push:(fun v -> Dps_ds.Queue_ms.enqueue q v)
        ~pop:(fun () -> Dps_ds.Queue_ms.dequeue q)
        (fun () -> Dps_ds.Queue_ms.check_invariants q)
        sim.Check.sched r;
      match Lin.check (module Lin.Queue_spec) (Lin.events r) with
      | Lin.Linearizable _ -> None
      | Lin.Nonlinearizable m -> Some m
      | Lin.Exhausted -> Some "WGL budget exhausted")

let stack_scenario ctl =
  Check.with_sim ctl (fun sim ->
      let s = Dps_ds.Stack_treiber.create sim.Check.alloc in
      let r = Lin.recorder () in
      seq_scenario ~name:"stack"
        ~push:(fun v -> Dps_ds.Stack_treiber.push s v)
        ~pop:(fun () -> Dps_ds.Stack_treiber.pop s)
        (fun () -> Dps_ds.Stack_treiber.check_invariants s)
        sim.Check.sched r;
      match Lin.check (module Lin.Stack_spec) (Lin.events r) with
      | Lin.Linearizable _ -> None
      | Lin.Nonlinearizable m -> Some m
      | Lin.Exhausted -> Some "WGL budget exhausted")

(* Lotan–Shavit remove_min is not linearizable as a priority queue (the
   paper's lf-s is quiescently consistent): check it as a bag — exact
   element accounting, any-element removal. *)
let pq_scenario ctl =
  Check.with_sim ctl (fun sim ->
      let pq = Dps_ds.Pq_shavit.create sim.Check.alloc in
      let r = Lin.recorder () in
      seq_scenario ~name:"pq"
        ~push:(fun v -> ignore (Dps_ds.Pq_shavit.insert pq ~key:v ~value:v))
        ~pop:(fun () ->
          match Dps_ds.Pq_shavit.remove_min pq with Some (k, _) -> Some k | None -> None)
        (fun () -> Dps_ds.Pq_shavit.check_invariants pq)
        sim.Check.sched r;
      match Lin.check (module Lin.Bag_spec) (Lin.events r) with
      | Lin.Linearizable _ -> None
      | Lin.Nonlinearizable m -> Some m
      | Lin.Exhausted -> Some "WGL budget exhausted")

let sweep_simple name scenario () =
  match Check.explore ~name ~budget:30 scenario with
  | Ok () -> ()
  | Error f -> Alcotest.fail f.Check.message

(* --- DPS-wrapped adapters: relaxed-bag semantics + exact accounting --- *)

let multiset l = List.sort compare l

(* Run [body c push pop] on [nclients] attached DPS clients; afterwards
   check (a) the recorded history against the relaxed bag spec and (b)
   exact accounting: pushed = popped + remaining, as multisets. *)
let adapter_scenario ~mk ~remaining body ctl =
  Check.with_sim ctl (fun sim ->
      let nclients = 6 in
      let dps, push, pop = mk sim in
      let r = Lin.recorder () in
      let pushed = ref [] in
      for c = 0 to nclients - 1 do
        Sthread.spawn sim.Check.sched ~hw:(Dps.client_hw dps c) (fun () ->
            Dps.attach dps ~client:c;
            body c
              (fun v ->
                pushed := v :: !pushed;
                ignore (Lin.record r (Lin.Push v) (fun () -> push v; 0)))
              (fun () ->
                ignore
                  (Lin.record r Lin.Pop (fun () ->
                       match pop () with Some x -> x | None -> Lin.absent)));
            Dps.client_done dps;
            Dps.drain dps)
      done;
      Sthread.run sim.Check.sched;
      let popped =
        List.filter_map
          (fun (e : Lin.seq_op Lin.event) ->
            match e.Lin.op with Lin.Pop when e.Lin.res <> Lin.absent -> Some e.Lin.res | _ -> None)
          (Lin.events r)
      in
      let rem = remaining dps in
      if multiset !pushed <> multiset (popped @ rem) then
        Some
          (Printf.sprintf "element accounting broken: %d pushed, %d popped, %d remaining"
             (List.length !pushed) (List.length popped) (List.length rem))
      else
        match Lin.check (module Lin.Bag_relaxed_spec) (Lin.events r) with
        | Lin.Linearizable _ -> None
        | Lin.Nonlinearizable m -> Some m
        | Lin.Exhausted -> None (* accounting above is the binding check *))

let adapter_body c push pop =
  for i = 0 to 2 do
    push ((100 * (c + 1)) + i);
    if i = 1 then pop ()
  done

let dps_stack_scenario =
  adapter_scenario
    ~mk:(fun sim ->
      let dps =
        Dps.create sim.Check.sched ~nclients:6 ~locality_size:3
          ~hash:(fun k -> k)
          ~mk_data:(fun (info : Dps.partition_info) -> Dps_ds.Stack_treiber.create info.Dps.alloc)
          ()
      in
      (dps, Dps_adapters.Stack.push dps, fun () -> Dps_adapters.Stack.pop dps))
    ~remaining:(fun dps ->
      List.concat
        (List.init (Dps.npartitions dps) (fun pid ->
             Dps_ds.Stack_treiber.to_list (Dps.partition_data dps pid))))
    adapter_body

let dps_queue_scenario =
  adapter_scenario
    ~mk:(fun sim ->
      let dps =
        Dps.create sim.Check.sched ~nclients:6 ~locality_size:3
          ~hash:(fun k -> k)
          ~mk_data:(fun (info : Dps.partition_info) -> Dps_ds.Queue_ms.create info.Dps.alloc)
          ()
      in
      (dps, Dps_adapters.Queue.enqueue dps, fun () -> Dps_adapters.Queue.dequeue dps))
    ~remaining:(fun dps ->
      List.concat
        (List.init (Dps.npartitions dps) (fun pid ->
             Dps_ds.Queue_ms.to_list (Dps.partition_data dps pid))))
    adapter_body

let dps_pq_scenario =
  adapter_scenario
    ~mk:(fun sim ->
      let dps =
        Dps.create sim.Check.sched ~nclients:6 ~locality_size:3
          ~hash:(fun k -> k)
          ~mk_data:(fun (info : Dps.partition_info) -> Dps_ds.Pq_shavit.create info.Dps.alloc)
          ()
      in
      ( dps,
        (fun v -> ignore (Dps_adapters.Pq.insert dps ~key:v ~value:v)),
        fun () ->
          match Dps_adapters.Pq.remove_min dps with Some (k, _) -> Some k | None -> None ))
    ~remaining:(fun dps ->
      List.concat
        (List.init (Dps.npartitions dps) (fun pid ->
             List.map fst (Dps_ds.Pq_shavit.to_list (Dps.partition_data dps pid)))))
    adapter_body

(* --- DPS delegation: exactly-once under explored schedules --- *)

type counters = { cells : int array }

let mk_counter_dps ?serving sim ~nclients ~locality_size =
  Dps.create sim.Check.sched ~nclients ~locality_size
    ~hash:(fun k -> k)
    ?serving
    ~mk_data:(fun (_ : Dps.partition_info) -> { cells = Array.make 32 0 })
    ()

let applied dps c =
  let total = ref 0 in
  for pid = 0 to Dps.npartitions dps - 1 do
    total := !total + (Dps.partition_data dps pid).cells.(c)
  done;
  !total

let dps_exactly_once_scenario ctl =
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
      Sthread.run sim.Check.sched;
      let bad = ref None in
      for c = 0 to nclients - 1 do
        let a = applied dps c in
        if a <> acked.(c) && !bad = None then
          bad := Some (Printf.sprintf "client %d: %d acked but %d applied" c acked.(c) a)
      done;
      !bad)

(* Self-healing: one client crashes mid-issue; survivors' operations must
   still apply exactly once, and the victim's at most once extra. *)
let dps_takeover_scenario ctl =
  Check.with_sim ctl (fun sim ->
      let nclients = 6 and per = 6 and victim = 1 in
      let dps = mk_counter_dps sim ~nclients ~locality_size:3
          ~serving:(Dps.Shared { heal_after = Some 15_000; adaptive = None }) in
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
      Sthread.run sim.Check.sched;
      let bad = ref None in
      for c = 0 to nclients - 1 do
        let a = applied dps c in
        if c = victim then begin
          if a < acked.(c) || a > acked.(c) + 1 then
            bad :=
              Some (Printf.sprintf "victim: %d acked but %d applied" acked.(c) a)
        end
        else if a <> acked.(c) && !bad = None then
          bad := Some (Printf.sprintf "client %d: %d acked but %d applied" c acked.(c) a)
      done;
      !bad)

(* --- mutation self-tests: the planted bugs must be caught and replay --- *)

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
      | Some m1, Some m2 ->
          Alcotest.(check string) (name ^ " bit-for-bit replay") m1 m2
      | _ -> Alcotest.failf "%s: minimized trace did not replay the failure" name)

let test_mutation_dropped_cas_retry () =
  with_flag Dps_ds.Ll_michael.failpoint_drop_cas_retry (fun () ->
      assert_caught_and_replays "lf-m dropped CAS retry"
        (set_scenario ~threads:6 ~per:8 ~key_range:3 (module Dps_ds.Ll_michael)))

let test_mutation_skipped_completion_fence () =
  with_flag Dps.failpoint_skip_completion_fence (fun () ->
      assert_caught_and_replays "dps skipped completion fence" dps_exactly_once_scenario)

(* --- suite --- *)

let set_cases =
  List.map
    (fun (module S : SET) ->
      (S.name ^ " linearizable under explored schedules", `Quick, sweep_set (module S)))
    sets

let suite =
  [
    ("wgl accepts reordering", `Quick, test_wgl_accepts_reordering);
    ("wgl rejects lost update", `Quick, test_wgl_rejects_lost_update);
    ("wgl queue order", `Quick, test_wgl_queue_order);
    ("wgl budget exhaustion", `Quick, test_wgl_budget_exhaustion);
    ("wgl per-key partitioning", `Quick, test_wgl_partitioned);
    ("race: unsynchronized accesses", `Quick, test_race_unsynchronized);
    ("race: message passing is ordered", `Quick, test_race_message_passing);
    ("race: rmw chains are sync", `Quick, test_race_rmw_is_sync);
    ("race: read_racy suppressed", `Quick, test_race_racy_read_suppressed);
    ("race: spawn and unpark edges", `Quick, test_race_spawn_and_unpark_edges);
    ("schedule trace round trip", `Quick, test_trace_round_trip);
    ("schedule shrink to culprit", `Quick, test_shrink_to_culprit);
    ("schedule replay bit-for-bit", `Quick, test_replay_bit_for_bit);
  ]
  @ set_cases
  @ [
      ("ms queue strict FIFO under schedules", `Quick, sweep_simple "queue_ms" queue_scenario);
      ( "treiber stack strict LIFO under schedules",
        `Quick,
        sweep_simple "stack_treiber" stack_scenario );
      ("shavit pq bag semantics under schedules", `Quick, sweep_simple "pq_shavit" pq_scenario);
      ("dps stack adapter relaxed bag", `Quick, sweep_simple "dps_stack" dps_stack_scenario);
      ("dps queue adapter relaxed bag", `Quick, sweep_simple "dps_queue" dps_queue_scenario);
      ("dps pq adapter relaxed bag", `Quick, sweep_simple "dps_pq" dps_pq_scenario);
      ( "dps exactly-once delegation",
        `Quick,
        sweep_simple "dps_exactly_once" dps_exactly_once_scenario );
      ("dps takeover after crash", `Quick, sweep_simple "dps_takeover" dps_takeover_scenario);
      ("mutation: dropped CAS retry caught", `Quick, test_mutation_dropped_cas_retry);
      ("mutation: skipped completion fence caught", `Quick, test_mutation_skipped_completion_fence);
    ]
