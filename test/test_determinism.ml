(** The determinism regime guarding the raw-speed refactor and the
    domain-parallel runner:

    - the machine fast paths (dense line directory, presence bit masks
      in place of cache-box membership probes) must charge bit-for-bit
      what the original functional-map implementation charged, pinned by
      a golden digest of a recorded access trace;
    - the parallel experiment runner must produce byte-identical
      [BENCH_*.json] to the sequential driver;
    - schedule exploration must find the same schedules regardless of the
      worker count. *)

module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Prng = Dps_simcore.Prng
module Stats = Dps_simcore.Stats
module Par = Dps_simcore.Par

(* --- (b) machine charge digest ------------------------------------- *)

(* FNV-1a over the stream of charged costs, stats and coherence metadata.
   The golden constant below was recorded against the pre-refactor
   implementation (Hashtbl line directory, Hashtbl cache-box indexes); the
   dense-array machine must reproduce it exactly. *)

let fnv_mix h v = (h lxor v) * 0x100000001b3 land max_int

let machine_trace_digest () =
  let cfg = Machine.config_scaled () in
  let m = Machine.create ~seed:0xD5EEDL cfg in
  let topo = Machine.topology m in
  let nthreads = Topology.nthreads topo in
  (* three regions across policies, including a deliberately hot prefix so
     the trace exercises sharing, invalidation, write serialization,
     eviction and TLB pressure *)
  let r1 = Machine.alloc m (Machine.On_node 0) ~lines:2048 in
  let r2 = Machine.alloc m Machine.Interleave ~lines:4096 in
  let r3 = Machine.alloc m (Machine.On_node 3) ~lines:512 in
  let regions = [| (r1, 2048); (r2, 4096); (r3, 512) |] in
  let p = Prng.create 0xACCE55L in
  let h = ref (Int64.to_int 0xcbf29ce484222325L land max_int) in
  for i = 0 to 59_999 do
    let thread = Prng.int p nthreads in
    let base, len = regions.(Prng.int p 3) in
    let addr = base + if Prng.bool p then Prng.int p 64 else Prng.int p len in
    let kind =
      match Prng.int p 4 with 0 | 1 -> Machine.Read | 2 -> Machine.Write | _ -> Machine.Rmw
    in
    let cost = Machine.access m ~now:(i * 3) ~thread ~addr ~kind in
    h := fnv_mix !h cost;
    if i mod 97 = 0 then Machine.set_active m ~thread (i land 1 = 0);
    if i mod 13 = 0 then h := fnv_mix !h (Machine.work_cost m ~thread 100)
  done;
  (* final stats pin the counter accounting, home_of pins placement *)
  List.iter
    (fun (k, v) ->
      String.iter (fun c -> h := fnv_mix !h (Char.code c)) k;
      h := fnv_mix !h v)
    (Stats.to_list (Machine.stats m));
  for a = 0 to 63 do
    h := fnv_mix !h (Machine.home_of m (r2 + (a * 61)))
  done;
  !h

let golden_machine_digest = 3313435576912635050

let test_machine_digest () =
  Alcotest.(check int) "charge-for-charge identical to the recorded directory trace"
    golden_machine_digest (machine_trace_digest ())

(* --- (a) parallel runner: byte-identical output for every -j --------- *)

module Bench = Dps_bench_figures.Bench_common

let with_jobs n f =
  Bench.set_jobs n;
  Fun.protect ~finally:(fun () -> Bench.set_jobs 1) f

(* A miniature two-series figure through the real printing/JSON path:
   run_series fan-out, print_header/print_series on the main domain,
   json_begin/json_end around it — exactly what bench/main.ml does. *)
let tiny_figure ~jobs =
  with_jobs jobs (fun () ->
      let w size =
        Bench.workload ~threads:8 ~size ~update_pct:20 ~skewed:false ~duration:20_000 ()
      in
      let series (module S : Dps_ds.Set_intf.SET) =
        ( S.name,
          List.map
            (fun size ->
              ( string_of_int size,
                fun () -> Bench.run_shared (module S) ~config:Machine.config_default (w size) ))
            [ 128; 256 ] )
      in
      Bench.json_begin ();
      Bench.print_header "determinism: tiny figure";
      let rows =
        Bench.run_series [ series (module Dps_ds.Ll_lazy); series (module Dps_ds.Bst_tk) ]
      in
      List.iter (fun (label, pts) -> Bench.print_series ~label pts) rows;
      let file = Printf.sprintf "BENCH_det_j%d.json" jobs in
      Bench.json_end ~name:(Printf.sprintf "det_j%d" jobs);
      let ic = open_in_bin file in
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      Sys.remove file;
      (rows, s))

let test_runner_json_identical () =
  let rows1, json1 = tiny_figure ~jobs:1 in
  let rows4, json4 = tiny_figure ~jobs:4 in
  Alcotest.(check bool) "results identical -j1 vs -j4" true (rows1 = rows4);
  Alcotest.(check string) "BENCH_*.json byte-identical -j1 vs -j4" json1 json4

(* The leak detector: an experiment point that tries to print or record
   from inside the fan-out must fail fast, not interleave output. *)
let test_worker_print_rejected () =
  let res =
    with_jobs 2 (fun () ->
        Bench.run_all
          [|
            (fun () ->
              if Par.in_worker () then
                match Bench.json_record ~series:"x" ~x:"y" [] with
                | () -> `Recorded
                | exception Invalid_argument _ -> `Rejected
              else `Not_in_worker);
            (fun () -> `Other);
          |])
  in
  (* one of the two thunks runs on a spawned worker domain whatever the
     schedule; accept `Not_in_worker only for the main-domain one *)
  Alcotest.(check bool) "json_record from a worker rejected" true
    (Array.exists (fun r -> r = `Rejected) res
    && not (Array.exists (fun r -> r = `Recorded) res))

(* --- (b) isolation: points back-to-back vs alone --------------------- *)

(* Two differently-configured points; running one must not perturb the
   other (shared toplevel state would), and a point computes the same
   thing on a worker domain as on the main domain. *)
let test_point_isolation () =
  let point_a () =
    Bench.run_shared
      (module Dps_ds.Sl_herlihy)
      ~config:Machine.config_default
      (Bench.workload ~threads:10 ~size:256 ~update_pct:50 ~skewed:true ~duration:20_000 ())
  in
  let point_b () =
    Bench.run_dps
      (module Dps_ds.Bst_tk)
      ~config:(Machine.config_scaled ())
      (Bench.workload ~threads:20 ~size:512 ~update_pct:10 ~skewed:false ~duration:20_000 ())
  in
  let a1 = point_a () in
  let b1 = point_b () in
  let a2 = point_a () in
  let b2 = point_b () in
  Alcotest.(check bool) "point A unaffected by running B in between" true (a1 = a2);
  Alcotest.(check bool) "point B replays identically" true (b1 = b2);
  let on_workers = with_jobs 2 (fun () -> Bench.run_all [| point_a; point_b |]) in
  Alcotest.(check bool) "worker-domain run identical to main-domain run" true
    (on_workers.(0) = a1 && on_workers.(1) = b1)

(* --- (c) schedule exploration: jobs-invariant ------------------------ *)

module Check = Dps_check.Check
module Schedule = Dps_check.Schedule

let explore_with_jobs jobs scenario =
  Unix.putenv "DPS_CHECK_JOBS" (string_of_int jobs);
  Fun.protect
    ~finally:(fun () -> Unix.putenv "DPS_CHECK_JOBS" "1")
    (fun () -> Check.explore ~name:"det_explore" ~budget:60 scenario)

(* A schedule-sensitive synthetic failure (the end time of a contended
   run is a fingerprint of the interleaving; a residue class of it fails):
   deterministic per schedule, so the parallel scan must report the same
   failing index, strategy, message and minimized trace as the sequential
   one — later indices in the failing window are explored and discarded. *)
let test_explore_jobs_invariant () =
  let scenario ctl =
    Check.with_sim ctl (fun sim ->
        let lines = Array.init 4 (fun _ -> Dps_sthread.Alloc.line sim.Check.alloc) in
        for tid = 0 to 3 do
          Dps_sthread.Sthread.spawn sim.Check.sched ~hw:(tid * 16) (fun () ->
              for i = 0 to 19 do
                Dps_sthread.Sthread.rmw lines.((tid + i) mod 4)
              done)
        done;
        Dps_sthread.Sthread.run sim.Check.sched;
        let t = Dps_sthread.Sthread.now sim.Check.sched in
        if t mod 5 = 0 then Some (Printf.sprintf "planted: end time %d mod 5 = 0" t) else None)
  in
  match (explore_with_jobs 1 scenario, explore_with_jobs 4 scenario) with
  | Ok (), Ok () -> Alcotest.fail "planted bug not found at all"
  | Error f1, Error f4 ->
      Alcotest.(check int) "same failing schedule index" f1.Check.index f4.Check.index;
      Alcotest.(check string) "same strategy" f1.Check.strategy f4.Check.strategy;
      Alcotest.(check string) "same message" f1.Check.message f4.Check.message;
      Alcotest.(check bool) "same minimized trace" true (f1.Check.trace = f4.Check.trace)
  | Ok (), Error f | Error f, Ok () ->
      Alcotest.failf "found only under one worker count (index %d)" f.Check.index

(* A clean scenario passes under both worker counts. *)
let test_explore_clean_jobs_invariant () =
  let scenario ctl =
    Check.with_sim ctl (fun sim ->
        let lines = Array.init 4 (fun _ -> Dps_sthread.Alloc.line sim.Check.alloc) in
        for tid = 0 to 3 do
          Dps_sthread.Sthread.spawn sim.Check.sched ~hw:(tid * 16) (fun () ->
              for i = 0 to 9 do
                Dps_sthread.Sthread.rmw lines.((tid + i) mod 4)
              done)
        done;
        Dps_sthread.Sthread.run sim.Check.sched;
        None)
  in
  (match explore_with_jobs 1 scenario with
  | Ok () -> ()
  | Error f -> Alcotest.fail f.Check.message);
  match explore_with_jobs 4 scenario with
  | Ok () -> ()
  | Error f -> Alcotest.fail f.Check.message

let suite =
  [
    ("machine trace digest", `Quick, test_machine_digest);
    ("runner: -j1 vs -j4 byte-identical JSON", `Quick, test_runner_json_identical);
    ("runner: worker-side printing rejected", `Quick, test_worker_print_rejected);
    ("runner: point isolation back-to-back and cross-domain", `Quick, test_point_isolation);
    ("explore: planted bug found at same index for any -j", `Quick, test_explore_jobs_invariant);
    ("explore: clean pass for any -j", `Quick, test_explore_clean_jobs_invariant);
  ]
