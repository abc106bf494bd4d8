(* Tests for key distributions and the benchmark driver. *)

module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Prng = Dps_simcore.Prng
module Keydist = Dps_workload.Keydist
module Driver = Dps_workload.Driver

let test_uniform_bounds () =
  let d = Keydist.uniform ~range:100 in
  let p = Prng.create 1L in
  Alcotest.(check int) "range" 100 (Keydist.range d);
  for _ = 1 to 10_000 do
    let k = Keydist.sample d p in
    if k < 0 || k >= 100 then Alcotest.failf "out of range: %d" k
  done

let test_uniform_covers () =
  let d = Keydist.uniform ~range:16 in
  let p = Prng.create 2L in
  let seen = Array.make 16 false in
  for _ = 1 to 2_000 do
    seen.(Keydist.sample d p) <- true
  done;
  Array.iteri (fun i s -> if not s then Alcotest.failf "key %d never drawn" i) seen

let test_zipf_skew () =
  (* Unscrambled zipf: rank 0 must dominate. *)
  let d = Keydist.zipf ~theta:0.99 ~scrambled:false ~range:1000 () in
  let p = Prng.create 3L in
  let counts = Array.make 1000 0 in
  let n = 50_000 in
  for _ = 1 to n do
    let k = Keydist.sample d p in
    counts.(k) <- counts.(k) + 1
  done;
  let f0 = float_of_int counts.(0) /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "rank 0 hot (%.3f)" f0) true (f0 > 0.05);
  Alcotest.(check bool) "rank 0 > rank 100" true (counts.(0) > counts.(100));
  Alcotest.(check bool) "rank 1 > rank 500" true (counts.(1) > counts.(500))

let test_zipf_scrambled_spreads () =
  let d = Keydist.zipf ~theta:0.99 ~scrambled:true ~range:1000 () in
  let p = Prng.create 4L in
  let counts = Array.make 1000 0 in
  for _ = 1 to 50_000 do
    let k = Keydist.sample d p in
    counts.(k) <- counts.(k) + 1
  done;
  (* hottest key should not be key 0 specifically (hash spreads ranks) but
     skew must survive: max count far above the mean of 100 *)
  let mx = Array.fold_left max 0 counts in
  Alcotest.(check bool) "still skewed" true (mx > 1000)

let test_zipf_bounds () =
  let d = Keydist.zipf ~range:37 () in
  let p = Prng.create 5L in
  for _ = 1 to 10_000 do
    let k = Keydist.sample d p in
    if k < 0 || k >= 37 then Alcotest.failf "out of range: %d" k
  done

let test_ycsb_mixes () =
  let module Ycsb = Dps_workload.Ycsb in
  let count kind =
    let g = Ycsb.make kind ~items:1000 in
    let p = Prng.create 3L in
    let reads = ref 0 and updates = ref 0 and inserts = ref 0 and rmws = ref 0 in
    for _ = 1 to 10_000 do
      match fst (Ycsb.next g p) with
      | Ycsb.Read -> incr reads
      | Ycsb.Update -> incr updates
      | Ycsb.Insert -> incr inserts
      | Ycsb.Read_modify_write -> incr rmws
    done;
    (!reads, !updates, !inserts, !rmws)
  in
  let r, u, _, _ = count Ycsb.A in
  Alcotest.(check bool) "A is 50/50" true (abs (r - u) < 600);
  let r, u, _, _ = count Ycsb.B in
  Alcotest.(check bool) "B is 95/5" true (r > 9200 && u < 800);
  let r, _, _, _ = count Ycsb.C in
  Alcotest.(check int) "C is read-only" 10_000 r;
  let r, _, _, w = count Ycsb.F in
  Alcotest.(check bool) "F mixes reads and RMW" true (r > 4000 && w > 4000)

let test_ycsb_d_grows_and_reads_latest () =
  let module Ycsb = Dps_workload.Ycsb in
  let g = Ycsb.make Ycsb.D ~items:1000 in
  let p = Prng.create 5L in
  let recent_reads = ref 0 and reads = ref 0 in
  for _ = 1 to 10_000 do
    match Ycsb.next g p with
    | Ycsb.Insert, key -> Alcotest.(check int) "insert extends key space" key (Ycsb.key_space g - 1)
    | Ycsb.Read, key ->
        incr reads;
        if key >= Ycsb.key_space g - 100 then incr recent_reads
    | (Ycsb.Update | Ycsb.Read_modify_write), _ -> Alcotest.fail "no updates in D"
  done;
  Alcotest.(check bool) "key space grew" true (Ycsb.key_space g > 1300);
  let frac = float_of_int !recent_reads /. float_of_int !reads in
  Alcotest.(check bool) (Printf.sprintf "reads favour latest (%.2f)" frac) true (frac > 0.5)

let test_driver_measures () =
  let m = Machine.create Machine.config_default in
  let sched = Sthread.create m in
  let a = Machine.alloc m (Machine.On_node 0) ~lines:64 in
  let r =
    Driver.measure ~sched ~threads:4 ~duration:100_000
      ~op:(fun ~tid ~step ->
        Sthread.read (a + ((tid + step) mod 64));
        Sthread.work 100)
      ()
  in
  Alcotest.(check int) "threads" 4 r.Driver.threads;
  Alcotest.(check bool) "ops happened" true (r.Driver.ops > 100);
  Alcotest.(check bool) "throughput positive" true (r.Driver.throughput_mops > 0.0);
  Alcotest.(check bool) "latency sane" true (r.Driver.p50 > 0 && r.Driver.p50 <= r.Driver.p99)

let test_driver_min_ops () =
  let m = Machine.create Machine.config_default in
  let sched = Sthread.create m in
  let r =
    Driver.measure ~sched ~threads:2 ~duration:10 ~min_ops:5
      ~op:(fun ~tid:_ ~step:_ -> Sthread.work 1_000)
      ()
  in
  Alcotest.(check bool) "min ops respected" true (r.Driver.ops >= 10)

let test_driver_prologue_epilogue () =
  let m = Machine.create Machine.config_default in
  let sched = Sthread.create m in
  let pro = ref 0 and epi = ref 0 in
  let _ =
    Driver.measure ~sched ~threads:3 ~duration:1_000
      ~prologue:(fun ~tid:_ -> incr pro)
      ~epilogue:(fun ~tid:_ -> incr epi)
      ~op:(fun ~tid:_ ~step:_ -> Sthread.work 100)
      ()
  in
  Alcotest.(check int) "prologues" 3 !pro;
  Alcotest.(check int) "epilogues" 3 !epi

let test_zipf_deterministic () =
  let draw () =
    let d = Keydist.zipf ~range:512 () in
    let p = Prng.create 7L in
    List.init 100 (fun _ -> Keydist.sample d p)
  in
  Alcotest.(check (list int)) "same seed, same trace" (draw ()) (draw ())

let test_driver_reproducible () =
  (* the README claims every benchmark number is exactly reproducible *)
  let run_once () =
    let m = Machine.create ~seed:7L Machine.config_default in
    let sched = Sthread.create m in
    let a = Machine.alloc m Machine.Interleave ~lines:256 in
    let dist = Keydist.zipf ~range:256 () in
    Driver.measure ~sched ~threads:16 ~duration:50_000
      ~op:(fun ~tid:_ ~step:_ ->
        let p = Sthread.self_prng () in
        let k = Keydist.sample dist p in
        if Prng.bool p then Sthread.write (a + k)
        else Sthread.read (a + k))
      ()
  in
  let r1 = run_once () and r2 = run_once () in
  Alcotest.(check int) "same ops" r1.Driver.ops r2.Driver.ops;
  Alcotest.(check (float 0.0)) "same throughput" r1.Driver.throughput_mops
    r2.Driver.throughput_mops;
  Alcotest.(check int) "same p99" r1.Driver.p99 r2.Driver.p99;
  Alcotest.(check (float 0.0)) "same misses/op" r1.Driver.llc_misses_per_op
    r2.Driver.llc_misses_per_op

let suite =
  [
    ("uniform bounds", `Quick, test_uniform_bounds);
    ("driver reproducible", `Quick, test_driver_reproducible);
    ("zipf deterministic", `Quick, test_zipf_deterministic);
    ("uniform covers", `Quick, test_uniform_covers);
    ("zipf skew", `Quick, test_zipf_skew);
    ("zipf scrambled spreads", `Quick, test_zipf_scrambled_spreads);
    ("zipf bounds", `Quick, test_zipf_bounds);
    ("driver measures", `Quick, test_driver_measures);
    ("driver min_ops", `Quick, test_driver_min_ops);
    ("driver prologue/epilogue", `Quick, test_driver_prologue_epilogue);
    ("ycsb mixes", `Quick, test_ycsb_mixes);
    ("ycsb D grows and reads latest", `Quick, test_ycsb_d_grows_and_reads_latest);
  ]
