(* Tests for the bandwidth model: token-bucket semantics, the
   bytes-never-exceed-capacity invariant, charge-for-charge identity of
   the bw:0 path, and the STREAM saturation-knee shape. *)

module Machine = Dps_machine.Machine
module Costs = Dps_machine.Costs
module Bwbucket = Dps_machine.Bwbucket
module Driver = Dps_workload.Driver
module Fig_deleg = Dps_bench_figures.Fig_deleg
module Fig_stream = Dps_bench_figures.Fig_stream

(* --- token-bucket units --- *)

let test_bucket_charge_within_burst () =
  let b = Bwbucket.create ~rate:10 ~per:1 ~burst:100 in
  Alcotest.(check int) "starts full" 100 (Bwbucket.tokens b);
  Alcotest.(check int) "no delay within burst" 0 (Bwbucket.charge b ~now:0 ~bytes:50);
  Alcotest.(check int) "tokens drained" 50 (Bwbucket.tokens b);
  Alcotest.(check int) "no delay to zero" 0 (Bwbucket.charge b ~now:0 ~bytes:50);
  Alcotest.(check int) "bytes accounted" 100 (Bwbucket.bytes b);
  Alcotest.(check int) "no queueing yet" 0 (Bwbucket.queue_cycles b)

let test_bucket_queueing_delay () =
  let b = Bwbucket.create ~rate:7 ~per:1 ~burst:10 in
  Alcotest.(check int) "burst admitted" 0 (Bwbucket.charge b ~now:0 ~bytes:10);
  (* 15 bytes of debt at 7 B/cycle: ceil(15/7) = 3 cycles *)
  Alcotest.(check int) "debt delay is ceil(debt/rate)" 3 (Bwbucket.charge b ~now:0 ~bytes:15);
  Alcotest.(check int) "queue cycles accumulate" 3 (Bwbucket.queue_cycles b);
  Alcotest.(check int) "queue events counted" 1 (Bwbucket.queue_events b)

let test_bucket_refill_caps_at_burst () =
  let b = Bwbucket.create ~rate:10 ~per:1 ~burst:100 in
  ignore (Bwbucket.charge b ~now:0 ~bytes:100);
  ignore (Bwbucket.charge b ~now:5 ~bytes:0);
  Alcotest.(check int) "partial refill" 50 (Bwbucket.tokens b);
  ignore (Bwbucket.charge b ~now:1000 ~bytes:0);
  Alcotest.(check int) "refill capped at burst" 100 (Bwbucket.tokens b)

let test_bucket_deep_debt_refill_exact () =
  let b = Bwbucket.create ~rate:3 ~per:1 ~burst:5 in
  (* 50 bytes against 5 tokens: 45 of debt, ceil(45/3) = 15 cycles *)
  Alcotest.(check int) "deep debt delay" 15 (Bwbucket.charge b ~now:0 ~bytes:50);
  (* 10 cycles later only 30 tokens accrue: still 15 in debt, not capped
     to anything else *)
  ignore (Bwbucket.charge b ~now:10 ~bytes:0);
  Alcotest.(check int) "debt refills exactly" (-15) (Bwbucket.tokens b);
  Alcotest.(check int) "next charge pays remaining debt" 6 (Bwbucket.charge b ~now:10 ~bytes:3)

(* --- qcheck: admitted bytes never exceed burst + rate * elapsed ---

   A caller that waits out every returned delay can never move more bytes
   through a bucket than its capacity over the window: after each charge
   plus its delay, total bytes <= burst + rate * now. *)

let qcheck_capacity_window =
  QCheck.Test.make ~name:"bucket: bytes <= burst + rate * elapsed" ~count:300
    QCheck.(
      triple (int_range 1 50) (int_range 1 1000)
        (list_of_size Gen.(int_range 1 60) (pair (int_bound 20) (int_range 1 500))))
    (fun (rate, burst, steps) ->
      let b = Bwbucket.create ~rate ~per:1 ~burst in
      let now = ref 0 in
      List.for_all
        (fun (dt, bytes) ->
          now := !now + dt;
          let d = Bwbucket.charge b ~now:!now ~bytes in
          now := !now + d;
          Bwbucket.bytes b <= burst + (rate * !now))
        steps)

(* --- qcheck: a bucket is a service queue ---

   The DRAM service queue and the NIC links are buckets refilling one
   64 B line every [per] cycles. With a one-line burst the delay is the
   wait before service starts — the busy-horizon queue
   [max 0 (busy - now)], busy advancing by [per] per line. With no burst
   it also covers the charge's own serialization, so [now + delay] is a
   link's departure time [max now free + lines * per]. Both must match
   the horizon arithmetic charge for charge. *)

let qcheck_service_queue =
  QCheck.Test.make ~name:"bucket: one-line burst is a service queue" ~count:300
    QCheck.(
      pair (int_range 1 20)
        (list_of_size Gen.(int_range 1 80) (pair (int_bound 30) (int_range 1 24))))
    (fun (per, steps) ->
      let line = 64 in
      let dram = Bwbucket.create ~rate:line ~per ~burst:line in
      let wire = Bwbucket.create ~rate:line ~per ~burst:0 in
      let busy = ref 0 and free = ref 0 and now = ref 0 in
      List.for_all
        (fun (dt, lines) ->
          now := !now + dt;
          let queue = max 0 (!busy - !now) in
          busy := max !now !busy + per;
          let depart = max !now !free + (lines * per) in
          free := depart;
          Bwbucket.charge dram ~now:!now ~bytes:line = queue
          && !now + Bwbucket.charge wire ~now:!now ~bytes:(lines * line) = depart)
        steps)

(* --- bw:0 bit-identity ---

   With bandwidth modeling off (the default: [Costs.bw_off]) the machine
   must charge exactly what it charged before the model existed. The
   golden values below are fig6a-style points recorded when the model
   landed, cross-checked against the pre-model machine by the
   determinism suite's charge-trace digest: if a future change leaks
   bucket behaviour into the bw:0 path, these trip. The same run is also
   repeated with a fresh machine to pin per-instance determinism. *)

let result_eq = Alcotest.testable Driver.pp_result ( = )

let identity_config =
  {
    Dps_bench_figures.Bench_common.full_config with
    Machine.costs = { Costs.default with Costs.bw = Costs.bw_unlimited };
  }

let test_bw0_identity_deleg () =
  let run ?config ?on_machine mode =
    Fig_deleg.run ?config ?on_machine ~mode ~threads:20 ~op_len:0 ~delay:0 ~duration:50_000 ()
  in
  List.iter
    (fun (name, mode, ops, dur, p50, p99, p999) ->
      let r = run mode in
      Alcotest.(check int) (name ^ " ops") ops r.Driver.ops;
      Alcotest.(check int) (name ^ " duration") dur r.Driver.duration_cycles;
      Alcotest.(check int) (name ^ " p50") p50 r.Driver.p50;
      Alcotest.(check int) (name ^ " p99") p99 r.Driver.p99;
      Alcotest.(check int) (name ^ " p999") p999 r.Driver.p999;
      Alcotest.check result_eq (name ^ " rerun identical") r (run mode))
    [
      ("dps", Fig_deleg.Dps_sync, 1375, 53534, 287, 2239, 2751);
      ("ffwd4", Fig_deleg.Ffwd_servers 4, 1102, 51462, 703, 4735, 8447);
    ]

(* [bw_unlimited] is [bw_off] plus byte counting: its buckets admit
   everything with zero delay and the DRAM service queue stays, so a run
   is charge-for-charge the bw:0 run while the byte counters observe it.
   Checked on a delegation workload and on a raw access trace over a
   scaled machine, where DRAM queueing, remote fills and dirty
   write-backs all occur. *)
let test_bw_unlimited_identity () =
  let run ?config ?on_machine () =
    Fig_deleg.run ?config ?on_machine ~mode:Fig_deleg.Dps_sync ~threads:20 ~op_len:0 ~delay:0
      ~duration:50_000 ()
  in
  let off = run () in
  let seen_bytes = ref (-1) in
  let unl =
    run ~config:identity_config
      ~on_machine:(fun m ->
        Alcotest.(check bool) "buckets exist" true (Machine.bw_enabled m);
        seen_bytes := Machine.interconnect_bytes m)
      ()
  in
  Alcotest.(check bool) "byte counters ran" true (!seen_bytes > 0);
  Alcotest.check result_eq "delegation run identical to bw:0" off unl;
  let trace bw =
    let cfg = Machine.config_scaled () in
    let m = Machine.create { cfg with Machine.costs = { Costs.default with Costs.bw } } in
    let base = Machine.alloc m Machine.Interleave ~lines:8192 in
    let p = Dps_simcore.Prng.create 11L in
    let costs =
      Array.init 20_000 (fun i ->
          let kind = if Dps_simcore.Prng.bool p then Machine.Read else Machine.Write in
          let thread = Dps_simcore.Prng.int p 80 in
          Machine.access m ~now:i ~thread ~addr:(base + Dps_simcore.Prng.int p 8192) ~kind)
    in
    (costs, Dps_simcore.Stats.get (Machine.stats m) "dram_queueing")
  in
  let off_costs, off_queued = trace Costs.bw_off in
  let unl_costs, _ = trace Costs.bw_unlimited in
  Alcotest.(check bool) "the trace queues at DRAM" true (off_queued > 0);
  Alcotest.(check (array int)) "access trace identical to bw:0" off_costs unl_costs

(* bw:0 has no bandwidth buckets: only the DRAM service queues exist,
   and no bytes are accounted. *)
let test_bw0_no_buckets () =
  let m = Machine.create Machine.config_default in
  Alcotest.(check bool) "bw off by default" false (Machine.bw_enabled m);
  Alcotest.(check bool) "no snapshot" true (Machine.bw_snapshot m = None);
  Alcotest.(check int) "dma charge free" 0 (Machine.bw_charge_dma m ~now:0 ~socket:0 ~bytes:4096);
  Alcotest.(check int) "no interconnect accounting" 0 (Machine.interconnect_bytes m)

let test_bw_snapshot_accounts () =
  let cfg =
    { Machine.config_default with Machine.costs = { Costs.default with Costs.bw = Costs.bw_default } }
  in
  let m = Machine.create cfg in
  let base = Machine.alloc m (Machine.On_node 1) ~lines:64 in
  (* thread 0 lives on socket 0; lines homed on node 1: every miss is a
     remote-DRAM fill crossing link 1 -> 0 *)
  for i = 0 to 63 do
    ignore (Machine.access m ~now:(i * 10) ~thread:0 ~addr:(base + i) ~kind:Machine.Read)
  done;
  match Machine.bw_snapshot m with
  | None -> Alcotest.fail "snapshot expected with bw on"
  | Some s ->
      Alcotest.(check int) "fills drain home memory controller" (64 * 64) s.Machine.mc_bytes.(1);
      let l10 = s.Machine.link_bytes.(1).(0) in
      Alcotest.(check int) "fills cross the home->reader link" (64 * 64) l10;
      Alcotest.(check int) "reverse direction idle" 0 s.Machine.link_bytes.(0).(1);
      Alcotest.(check int) "interconnect total matches" l10 (Machine.interconnect_bytes m)

(* --- deterministic saturation knee ---

   The STREAM sweep's shape on the full machine: local throughput scales
   then flattens (the knee), the remote plateau sits well below the local
   one (link narrower than a memory controller), and the remote sweep is
   already saturated at a core count where local still scales. Everything
   is simulated, so the floats are exactly reproducible — run one point
   twice and demand equality. *)

let stream_point ~place ~cores =
  Fig_stream.run_stream ~kernel:Fig_stream.Copy ~place ~cores ~duration:150_000

let test_stream_knee () =
  let l1 = stream_point ~place:Fig_stream.Local ~cores:1 in
  let l2 = stream_point ~place:Fig_stream.Local ~cores:2 in
  let l4 = stream_point ~place:Fig_stream.Local ~cores:4 in
  let r1 = stream_point ~place:Fig_stream.Remote ~cores:1 in
  let r2 = stream_point ~place:Fig_stream.Remote ~cores:2 in
  let r4 = stream_point ~place:Fig_stream.Remote ~cores:4 in
  Alcotest.(check bool) "local scales 1->2" true (l2 > 1.8 *. l1);
  Alcotest.(check bool) "local knees by 4" true (l4 < 3.8 *. l1);
  Alcotest.(check bool) "local 4 above 2" true (l4 > l2);
  Alcotest.(check bool) "remote plateau below local" true (r4 < 0.5 *. l4);
  (* remote saturates earlier: by 2 cores it is within 15% of its
     4-core plateau, while local at 2 is still far from its plateau *)
  Alcotest.(check bool) "remote saturated at 2" true (r2 >= 0.85 *. r4);
  Alcotest.(check bool) "local still scaling at 2" true (l2 < 0.85 *. l4);
  Alcotest.(check bool) "remote scales 1->2" true (r2 > 1.5 *. r1);
  let l4' = stream_point ~place:Fig_stream.Local ~cores:4 in
  Alcotest.(check (float 0.0)) "bit-deterministic" l4 l4'

let suite =
  [
    Alcotest.test_case "bucket: charge within burst" `Quick test_bucket_charge_within_burst;
    Alcotest.test_case "bucket: queueing delay" `Quick test_bucket_queueing_delay;
    Alcotest.test_case "bucket: refill caps at burst" `Quick test_bucket_refill_caps_at_burst;
    Alcotest.test_case "bucket: deep debt refill" `Quick test_bucket_deep_debt_refill_exact;
    QCheck_alcotest.to_alcotest qcheck_capacity_window;
    QCheck_alcotest.to_alcotest qcheck_service_queue;
    Alcotest.test_case "bw:0 bit-identity (fig6a-style)" `Quick test_bw0_identity_deleg;
    Alcotest.test_case "bw_unlimited does not throttle" `Quick test_bw_unlimited_identity;
    Alcotest.test_case "bw:0 creates no buckets" `Quick test_bw0_no_buckets;
    Alcotest.test_case "bw snapshot accounting" `Quick test_bw_snapshot_accounts;
    Alcotest.test_case "stream saturation knee" `Quick test_stream_knee;
  ]
