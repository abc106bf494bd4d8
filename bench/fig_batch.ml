(** Batch figure: cache-line request coalescing on the DPS hot path.

    Not from the paper — the paper's protocol posts one operation per
    message line. These experiments measure what sender-side coalescing
    ({!Dps.create}'s [batch] knob) buys and costs:

    - (a) throughput and latency vs batch size, with clients issuing
      windows of small operations to one partition (the shape that
      coalesces — a multi-get against co-located keys). Expected shape:
      throughput rises with batch size and flattens as the per-line
      header/claim amortization saturates; window latency falls with it.
    - (b) delegation latency vs the age-based flush bound, under sparse
      asynchronous traffic with think time. Expected shape: p50 rises
      with [batch_age] — a staged operation waits out the bound before
      the line is published — which is exactly the latency the bound
      caps.
    - (c) end-to-end: the memcached-over-network figure's DPS-ParSec
      point at 4096 clients, batched vs unbatched sets. *)

open Bench_common
module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Prng = Dps_simcore.Prng
module Histogram = Dps_simcore.Histogram
module Driver = Dps_workload.Driver
module Netload = Dps_workload.Netload

let threads = 80
let op_len = 50
let window = 7

let mk_dps sched ~batch ~batch_age =
  Dps.create sched ~nclients:threads ~locality_size:10 ~batch ~batch_age
    ~hash:(fun k -> k)
    ~mk_data:(fun _ -> ())
    ()

let ops_per_flush dps =
  let flushes = Dps.batch_flushes dps in
  if flushes = 0 then 1.0 else float_of_int (Dps.delegated_ops dps) /. float_of_int flushes

(* (a): each step issues a window of small operations against one
   partition's keys, then awaits them — the coalescible pattern.
   [config] and [on_machine] as in {!Fig_deleg.run}. *)
let run_window ?(config = full_config) ?(on_machine = fun (_ : Machine.t) -> ()) ~batch () =
  let m = Machine.create config in
  let sched = Sthread.create m in
  let dps = mk_dps sched ~batch ~batch_age:1500 in
  let nparts = Dps.npartitions dps in
  let op ~tid:_ ~step:_ =
    let p = Sthread.self_prng () in
    let base = Prng.int p nparts in
    let pending =
      Array.init window (fun _ ->
          let key = base + (nparts * Prng.int p 64) in
          Dps.execute dps ~key (fun () ->
              Sthread.work op_len;
              0))
    in
    Array.iter (fun c -> ignore (Dps.await dps c)) pending
  in
  let r = measure_dps ~sched dps ~threads ~duration:default_duration ~op () in
  on_machine m;
  (r, ops_per_flush dps)

let fig_sizes () =
  print_header
    (Printf.sprintf
       "Batch (a): throughput/latency vs batch size (%d threads, %d-cycle ops, windows of %d)"
       threads op_len window);
  let batches = [ 1; 2; 4; 7 ] in
  let pts = map_points (fun b -> (b, run_window ~batch:b ())) batches in
  List.iter
    (fun (b, (r, opf)) ->
      json_record ~series:"DPS" ~x:(string_of_int b)
        [
          ("throughput_mops", r.Driver.throughput_mops *. float_of_int window);
          ("p50", float_of_int r.Driver.p50);
          ("p99", float_of_int r.Driver.p99);
          ("ops_per_flush", opf);
        ])
    pts;
  Printf.printf "%-14s %s\n" "batch"
    (String.concat "  " (List.map (fun (b, _) -> Printf.sprintf "%10d" b) pts));
  Printf.printf "%-14s %s  (Mops/s)\n" "DPS"
    (String.concat "  "
       (List.map
          (fun (_, (r, _)) ->
            Printf.sprintf "%10.3f" (r.Driver.throughput_mops *. float_of_int window))
          pts));
  Printf.printf "%-14s %s  (p50 cyc/window)\n" ""
    (String.concat "  " (List.map (fun (_, (r, _)) -> Printf.sprintf "%10d" r.Driver.p50) pts));
  Printf.printf "%-14s %s  (p99 cyc/window)\n" ""
    (String.concat "  " (List.map (fun (_, (r, _)) -> Printf.sprintf "%10d" r.Driver.p99) pts));
  Printf.printf "%-14s %s  (ops/flush)\n%!" ""
    (String.concat "  " (List.map (fun (_, (_, opf)) -> Printf.sprintf "%10.2f" opf) pts))

(* (b): sparse asynchronous traffic with think time; a staged operation's
   latency (issue to server-side execution) is bounded by the age flush. *)
let run_aged ~batch_age =
  let m = Machine.create full_config in
  let sched = Sthread.create m in
  let dps = mk_dps sched ~batch:7 ~batch_age in
  let nparts = Dps.npartitions dps in
  let lat = Histogram.create () in
  let op ~tid:_ ~step:_ =
    let p = Sthread.self_prng () in
    let key = Prng.int p (64 * nparts) in
    let t0 = Sthread.time () in
    Dps.execute_async dps ~key (fun () ->
        Histogram.add lat (Sthread.time () - t0);
        Sthread.work op_len;
        0);
    (* think time between submissions keeps every stage below the full
       batch, so only the age bound publishes it *)
    Sthread.work 2000;
    ignore (Dps.serve dps ~max:4)
  in
  let (_ : Driver.result) = measure_dps ~sched dps ~threads ~duration:default_duration ~op () in
  (lat, ops_per_flush dps)

let fig_age () =
  print_header
    "Batch (b): async delegation latency vs age-based flush bound (batch 7, 2000-cycle think)";
  let ages = [ 250; 1000; 4000; 16_000 ] in
  let pts = map_points (fun a -> (a, run_aged ~batch_age:a)) ages in
  List.iter
    (fun (a, (lat, opf)) ->
      json_record ~series:"DPS" ~x:(string_of_int a)
        [
          ("p50", float_of_int (Histogram.percentile lat 0.50));
          ("p99", float_of_int (Histogram.percentile lat 0.99));
          ("ops_per_flush", opf);
        ])
    pts;
  Printf.printf "%-14s %s\n" "batch_age"
    (String.concat "  " (List.map (fun (a, _) -> Printf.sprintf "%10d" a) pts));
  Printf.printf "%-14s %s  (p50 cyc)\n" "DPS"
    (String.concat "  "
       (List.map
          (fun (_, (lat, _)) -> Printf.sprintf "%10d" (Histogram.percentile lat 0.50))
          pts));
  Printf.printf "%-14s %s  (p99 cyc)\n" ""
    (String.concat "  "
       (List.map
          (fun (_, (lat, _)) -> Printf.sprintf "%10d" (Histogram.percentile lat 0.99))
          pts));
  Printf.printf "%-14s %s  (ops/flush)\n%!" ""
    (String.concat "  " (List.map (fun (_, (_, opf)) -> Printf.sprintf "%10.2f" opf) pts))

(* (c): the network figure's DPS-ParSec point, batched vs unbatched. *)
let run_net ~batch =
  (Fig_net.run ~batch Fig_net.Dps_parsec ~nclients:4096 ~set_pct:10 ~mode:None ()).Fig_net.r

let fig_net () =
  print_header "Batch (c): memcached/net DPS-ParSec at 4096 clients, batched vs unbatched sets";
  let pts = map_points (fun b -> (b, run_net ~batch:b)) [ 1; 4 ] in
  List.iter
    (fun (b, r) ->
      json_record ~series:"DPS-ParSec" ~x:(string_of_int b)
        [
          ("throughput_mops", r.Netload.throughput_mops);
          ("p50", float_of_int r.Netload.p50);
          ("p99", float_of_int r.Netload.p99);
        ])
    pts;
  Printf.printf "%-14s %s\n" "batch"
    (String.concat "  " (List.map (fun (b, _) -> Printf.sprintf "%10d" b) pts));
  Printf.printf "%-14s %s  (Mops/s)\n" "DPS-ParSec"
    (String.concat "  "
       (List.map (fun (_, r) -> Printf.sprintf "%10.3f" r.Netload.throughput_mops) pts));
  Printf.printf "%-14s %s  (p99 cyc)\n%!" ""
    (String.concat "  " (List.map (fun (_, r) -> Printf.sprintf "%10d" r.Netload.p99) pts))

let all () =
  fig_sizes ();
  fig_age ();
  fig_net ()
