(* Tests for the unified observability layer: the zero-perturbation
   invariant (bit-identical simulation with observability off or on), span
   nesting and trace well-formedness (including under schedule
   exploration), the metrics registry, the JSON codec, the bench
   regression policy, and the planted span-close mutation. *)

module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Stats = Dps_simcore.Stats
module Hashtable = Dps_ds.Hashtable
module Schedule = Dps_check.Schedule
module Obs = Dps_obs.Obs
module Registry = Dps_obs.Registry
module Json = Dps_obs.Json
module Regress = Dps_obs.Regress

(* A small delegated workload: 20 clients over 2 partitions inserting into
   a DPS hash table — exercises issue/flush/dispatch/await spans and the
   machine's stall reporting. *)
let run_workload ?ctl () =
  let m = Machine.create Machine.config_default in
  let sched = Sthread.create m in
  (match ctl with Some c -> Schedule.attach c sched | None -> ());
  let dps =
    Dps.create sched ~nclients:20 ~locality_size:10 ~hash:Fun.id
      ~mk_data:(fun (info : Dps.partition_info) -> Hashtable.create info.Dps.alloc)
      ()
  in
  for client = 0 to 19 do
    Sthread.spawn sched ~hw:(Dps.client_hw dps client) (fun () ->
        Dps.attach dps ~client;
        for i = 0 to 19 do
          let key = (client * 20) + i in
          ignore
            (Dps.call dps ~key (fun ht -> if Hashtable.insert ht ~key ~value:key then 1 else 0))
        done;
        Dps.client_done dps;
        Dps.drain dps)
  done;
  Sthread.run sched;
  (m, sched, dps)

(* Everything the simulation computes, as one comparable value. *)
let fingerprint (m, sched, dps) =
  ( Sthread.now sched,
    Dps.delegated_ops dps,
    Dps.local_ops dps,
    Stats.to_list (Machine.stats m) )

let cleanup () =
  Obs.stop ();
  Obs.reset ()

(* --- the tentpole invariant: observation never perturbs ----------------- *)

let test_zero_perturbation () =
  cleanup ();
  let off = fingerprint (run_workload ()) in
  Obs.start ~tracing:true ~profiling:true ();
  let on = fingerprint (run_workload ()) in
  Obs.stop ();
  Alcotest.(check bool) "events were collected" true (Obs.event_count () > 0);
  Alcotest.(check bool) "bit-identical with observability on" true (off = on);
  Obs.start ~tracing:false ~profiling:true ();
  let prof = fingerprint (run_workload ()) in
  cleanup ();
  Alcotest.(check bool) "bit-identical with profiling only" true (off = prof)

(* --- span nesting and cycle attribution --------------------------------- *)

let test_profile_attribution () =
  cleanup ();
  Obs.start ~tracing:false ~profiling:true ();
  let _ = run_workload () in
  Obs.stop ();
  (match Obs.validate () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "profiled run invalid: %s" e);
  let rows = Obs.profile () in
  let phases = List.map (fun (r : Obs.prof_row) -> r.phase) rows in
  List.iter
    (fun p ->
      Alcotest.(check bool) (p ^ " attributed") true (List.mem p phases))
    [ "dps.issue"; "dps.dispatch"; "dps.await" ];
  List.iter
    (fun (r : Obs.prof_row) ->
      let self = r.self_work + r.self_mem + r.self_stall + r.self_park in
      Alcotest.(check bool)
        (r.phase ^ ": inclusive total covers self")
        true (r.total >= self))
    rows;
  let cores = Obs.core_cycles () in
  Alcotest.(check bool) "cycles attributed to cores" true
    (cores <> [] && List.for_all (fun (_, c) -> c > 0) cores);
  cleanup ()

(* --- trace well-formedness ---------------------------------------------- *)

let test_trace_wellformed () =
  cleanup ();
  Obs.start ~tracing:true ~profiling:false ();
  let _ = run_workload () in
  Obs.stop ();
  (match Obs.validate () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "trace invalid: %s" e);
  let j =
    match Json.parse (Obs.chrome_json ()) with
    | Ok j -> j
    | Error e -> Alcotest.failf "chrome trace is not valid JSON: %s" e
  in
  let events =
    match Json.member "traceEvents" j with
    | Some (Json.List l) -> l
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "trace has events" true (List.length events > 0);
  let ph e = match Json.member "ph" e with Some (Json.Str s) -> s | _ -> "?" in
  let count p = List.length (List.filter (fun e -> ph e = p) events) in
  List.iter
    (fun e ->
      Alcotest.(check bool) "every event has a phase" true (ph e <> "?");
      match Json.member "pid" e with
      | Some (Json.Num _) -> ()
      | _ -> Alcotest.fail "event missing pid")
    events;
  Alcotest.(check int) "span opens match closes" (count "B") (count "E");
  Alcotest.(check int) "async begins match ends" (count "b") (count "e");
  cleanup ()

(* --- determinism under schedule exploration ------------------------------ *)

let test_trace_replay_identical () =
  cleanup ();
  let traced ctl =
    Obs.start ~tracing:true ~profiling:true ();
    let _ = run_workload ~ctl () in
    Obs.stop ();
    let j = Obs.chrome_json () in
    Obs.reset ();
    j
  in
  let ctl = Schedule.make ~seed:5L (Schedule.Random_preempt { prob = 0.05; max_delay = 400 }) in
  let j1 = traced ctl in
  let tr = Schedule.trace ctl in
  Alcotest.(check bool) "schedule was perturbed" true (tr <> []);
  let j2 = traced (Schedule.make ~seed:0L (Schedule.Replay tr)) in
  Alcotest.(check bool) "replayed trace is byte-identical" true (String.equal j1 j2)

(* --- metrics registry ---------------------------------------------------- *)

let test_registry () =
  let reg = Registry.create () in
  let c = Registry.counter reg "test.ops" in
  Registry.Counter.incr c;
  Registry.Counter.add c 41;
  let g = Registry.gauge reg ~labels:[ ("socket", "1") ] "test.depth" in
  Registry.Gauge.set g 2.5;
  Registry.gauge_fn reg ~labels:[ ("socket", "0") ] "test.depth" (fun () -> 7.0);
  let h = Registry.histo reg "test.latency" in
  List.iter (Registry.Histo.observe h) [ 10; 20; 30; 40 ];
  let snap = Registry.snapshot reg in
  Alcotest.(check int) "four instruments" 4 (List.length snap);
  let names = List.map (fun s -> s.Registry.name) snap in
  Alcotest.(check bool) "sorted by name" true (names = List.sort compare names);
  (match
     List.find_opt (fun s -> s.Registry.name = "test.ops") snap
   with
  | Some { Registry.value = Registry.Counter_v 42; _ } -> ()
  | _ -> Alcotest.fail "counter value lost");
  (match
     List.find_opt
       (fun s -> s.Registry.name = "test.depth" && s.Registry.labels = [ ("socket", "0") ])
       snap
   with
  | Some { Registry.value = Registry.Gauge_v 7.0; _ } -> ()
  | _ -> Alcotest.fail "callback gauge not sampled");
  (match List.find_opt (fun s -> s.Registry.name = "test.latency") snap with
  | Some { Registry.value = Registry.Histo_v { count = 4; _ }; _ } -> ()
  | _ -> Alcotest.fail "histogram count lost")

let test_registry_label_uniqueness () =
  let reg = Registry.create () in
  ignore (Registry.counter reg ~labels:[ ("a", "1"); ("b", "2") ] "dup.metric");
  (* same name, same labels in a different order: normalization collides *)
  Alcotest.check_raises "duplicate registration rejected"
    (Invalid_argument "Registry: duplicate metric dup.metric{a=1,b=2}") (fun () ->
      ignore (Registry.counter reg ~labels:[ ("b", "2"); ("a", "1") ] "dup.metric"));
  (* same name, different labels: a distinct series, accepted *)
  ignore (Registry.counter reg ~labels:[ ("a", "9") ] "dup.metric")

(* --- JSON codec ----------------------------------------------------------- *)

let test_json_codec () =
  let src = {|{"s":"a\"b\\cA😀","n":[1,2.5,-3e2,0],"b":true,"z":null}|} in
  let j = Json.parse_exn src in
  (match Json.member "s" j with
  | Some (Json.Str s) -> Alcotest.(check string) "escapes" "a\"b\\cA\xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "string member lost");
  (match Json.member "n" j with
  | Some (Json.List [ a; b; c; d ]) ->
      Alcotest.(check bool) "numbers" true
        (Json.to_float a = Some 1.0 && Json.to_float b = Some 2.5 && Json.to_float c = Some (-300.0)
       && Json.to_float d = Some 0.0)
  | _ -> Alcotest.fail "number array lost");
  (* print/parse round-trip is the identity on the tree *)
  Alcotest.(check bool) "roundtrip" true (Json.parse_exn (Json.to_string j) = j);
  List.iter
    (fun bad ->
      match Json.parse bad with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed %S" bad)
    [ "[1,"; "{\"a\":}"; "{} trailing"; "\"unterminated"; "nul"; "[01]" ]

(* --- bench regression policy --------------------------------------------- *)

let test_regress_policy () =
  let recs s = Result.get_ok (Regress.records_of_json (Json.parse_exn s)) in
  let baseline =
    recs
      {|[{"section":"f","series":"DPS","x":"10","throughput_mops":100.0,"p99":5000},
         {"section":"f","series":"DPS","x":"80","throughput_mops":50.0,"p99":9000}]|}
  in
  let v = Regress.compare ~tolerance:0.10 ~baseline ~fresh:baseline in
  Alcotest.(check int) "identical run compares all points" 2 v.Regress.compared;
  Alcotest.(check bool) "identical run passes clean" true
    (v.Regress.failures = [] && v.Regress.warnings = []);
  (* a planted 15% throughput regression hard-fails *)
  let slow =
    recs
      {|[{"section":"f","series":"DPS","x":"10","throughput_mops":85.0,"p99":5000},
         {"section":"f","series":"DPS","x":"80","throughput_mops":50.0,"p99":9000}]|}
  in
  let v = Regress.compare ~tolerance:0.10 ~baseline ~fresh:slow in
  Alcotest.(check int) "regression hard-fails" 1 (List.length v.Regress.failures);
  (* an improvement and non-throughput drift only warn *)
  let better =
    recs
      {|[{"section":"f","series":"DPS","x":"10","throughput_mops":120.0,"p99":4000},
         {"section":"f","series":"DPS","x":"80","throughput_mops":50.0,"p99":9000}]|}
  in
  let v = Regress.compare ~tolerance:0.10 ~baseline ~fresh:better in
  Alcotest.(check bool) "improvement does not fail" true (v.Regress.failures = []);
  Alcotest.(check int) "improvement and drift warn" 2 (List.length v.Regress.warnings);
  (* a vanished or new point is a determinism mismatch: hard failure *)
  let missing = [ List.hd baseline ] in
  let v = Regress.compare ~tolerance:0.10 ~baseline ~fresh:missing in
  Alcotest.(check bool) "missing point fails" true (v.Regress.failures <> []);
  let v = Regress.compare ~tolerance:0.10 ~baseline:missing ~fresh:baseline in
  Alcotest.(check bool) "new point fails" true (v.Regress.failures <> [])

(* --- planted mutation ----------------------------------------------------- *)

let test_failpoint_drop_span_close () =
  cleanup ();
  Obs.start ~tracing:true ~profiling:true ();
  let m = Machine.create Machine.config_default in
  let sched = Sthread.create m in
  Sthread.spawn sched ~hw:0 (fun () ->
      Obs.failpoint_drop_span_close := true;
      Sthread.obs_span "mutated" (fun () -> Sthread.work 100));
  Sthread.run sched;
  Obs.stop ();
  Alcotest.(check bool) "flag self-cleared" false !Obs.failpoint_drop_span_close;
  (match Obs.validate () with
  | Ok () -> Alcotest.fail "dropped span close not caught"
  | Error _ -> ());
  cleanup ();
  (* same run without the mutation validates *)
  Obs.start ~tracing:true ~profiling:true ();
  let m = Machine.create Machine.config_default in
  let sched = Sthread.create m in
  Sthread.spawn sched ~hw:0 (fun () ->
      Sthread.obs_span "clean" (fun () -> Sthread.work 100));
  Sthread.run sched;
  Obs.stop ();
  (match Obs.validate () with
  | Ok () -> ()
  | Error e -> Alcotest.failf "clean run invalid: %s" e);
  cleanup ()

let suite =
  [
    ("zero perturbation: off/on bit-identical", `Quick, test_zero_perturbation);
    ("profile cycle attribution", `Quick, test_profile_attribution);
    ("chrome trace well-formed", `Quick, test_trace_wellformed);
    ("trace identical across replayed schedules", `Quick, test_trace_replay_identical);
    ("metrics registry", `Quick, test_registry);
    ("registry label uniqueness", `Quick, test_registry_label_uniqueness);
    ("json codec", `Quick, test_json_codec);
    ("bench regression policy", `Quick, test_regress_policy);
    ("mutation: dropped span close caught", `Quick, test_failpoint_drop_span_close);
  ]
