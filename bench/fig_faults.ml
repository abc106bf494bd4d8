(** Fault figure (chaos harness): DPS throughput under injected faults.

    Not from the paper — the paper assumes fail-free execution (§6 lists
    fault tolerance as future work). This experiment measures what the
    self-healing runtime pays and recovers: throughput at 40 threads while
    a seeded {!Dps_faults} plan crashes clients mid-run or stalls/delays
    them, plus the {!Dps.health} counters that show the recovery machinery
    (takeovers, adoptions, re-issues, failovers) actually firing. The
    expected shape is graceful degradation — throughput tracks the number
    of surviving clients, with no collapse when victims take their serving
    shares and in-flight delegations with them. *)

open Bench_common
module Sthread = Dps_sthread.Sthread
module Prng = Dps_simcore.Prng
module Driver = Dps_workload.Driver
module Faults = Dps_faults

let threads = 40
let op_len = 200

(* Crash victims spread round-robin across localities, so no locality is
   emptied (whole-locality death is the separate failover row). *)
let spread_victims ~n =
  List.init n (fun i -> ((i mod 4) * 10) + (i / 4))

type chaos = {
  crash_tids : int list;
  stall_prob : float;
  delay_prob : float;
}

let no_chaos = { crash_tids = []; stall_prob = 0.0; delay_prob = 0.0 }

let run ~chaos ~duration =
  let m = Dps_machine.Machine.create full_config in
  let sched = Sthread.create m in
  let dps =
    Dps.create sched ~nclients:threads ~locality_size:10
      ~hash:(fun k -> k)
      ~serving:(Dps.Shared { heal_after = Some 20_000; adaptive = None })
      ~mk_data:(fun _ -> ())
      ()
  in
  let plan =
    Faults.install sched ~seed:99L
      (Faults.spec ~stall_prob:chaos.stall_prob ~stall_cycles:2_000 ~delay_prob:chaos.delay_prob
         ~delay_cycles:400 ~after:(duration / 8) ())
  in
  (* crashes staggered through the middle half of the run *)
  let n = List.length chaos.crash_tids in
  List.iteri
    (fun i tid ->
      Faults.schedule_crash plan ~tid ~at:((duration / 4) + (i * duration / (2 * max 1 n))))
    chaos.crash_tids;
  let nparts = Dps.npartitions dps in
  let op ~tid:_ ~step:_ =
    let p = Sthread.self_prng () in
    let key = Prng.int p (64 * nparts) in
    ignore
      (Dps.call dps ~key (fun () ->
           Sthread.work op_len;
           0))
  in
  let r = measure_dps ~sched dps ~threads ~duration ~op () in
  (r, Dps.health dps)

let print_health ~label (h : Dps.health) =
  Printf.printf "%-14s crashes=%d takeovers=%d adoptions=%d retries=%d failovers=%d breaks=%d\n%!"
    (label ^ " heal") h.Dps.crashes h.Dps.takeovers h.Dps.adoptions h.Dps.retries h.Dps.failovers
    h.Dps.lock_breaks

let fig_crashes () =
  print_header
    "Fault figure (a): throughput vs clients crashed mid-run (40 threads, 200-cycle ops)";
  let counts = if quick then [ 0; 8 ] else [ 0; 2; 4; 8; 12 ] in
  Printf.printf "x = crashed clients (spread across localities)\n";
  let pts =
    map_points
      (fun n ->
        ( string_of_int n,
          run ~chaos:{ no_chaos with crash_tids = spread_victims ~n } ~duration:default_duration ))
      counts
  in
  print_series ~label:"DPS-heal" (List.map (fun (x, (r, _)) -> (x, r)) pts);
  List.iter (fun (x, (_, h)) -> print_health ~label:("  n=" ^ x) h) pts

let fig_stalls () =
  print_header "Fault figure (b): throughput vs stall/delay rate (40 threads, no crashes)";
  let rates = if quick then [ 0.0; 0.02 ] else [ 0.0; 0.001; 0.005; 0.01; 0.02 ] in
  Printf.printf "x = P(stall <=2000cy) per scheduling point; delay rate = 2x on memory accesses\n";
  let pts =
    map_points
      (fun p ->
        ( Printf.sprintf "%g" p,
          run
            ~chaos:{ no_chaos with stall_prob = p; delay_prob = 2.0 *. p }
            ~duration:default_duration ))
      rates
  in
  print_series ~label:"DPS-heal" (List.map (fun (x, (r, _)) -> (x, r)) pts);
  List.iter (fun (x, (_, h)) -> print_health ~label:("  p=" ^ x) h) pts

let fig_failover () =
  print_header "Fault figure (c): whole-locality crash and partition failover (40 threads)";
  let victims = List.init 10 (fun i -> 30 + i) in
  let r, h = run ~chaos:{ no_chaos with crash_tids = victims } ~duration:default_duration in
  Printf.printf "locality 3 (10 clients) killed mid-run; its namespace buckets retarget\n";
  print_series ~label:"DPS-heal" [ ("loc-crash", r) ];
  print_health ~label:"" h;
  let dead =
    Array.to_list h.Dps.dead_partitions
    |> List.mapi (fun i d -> (i, d))
    |> List.filter_map (fun (i, d) -> if d then Some (Printf.sprintf "p%d" i) else None)
  in
  Printf.printf "dead partitions: %s\n%!" (String.concat "," dead)

let all () =
  fig_crashes ();
  fig_stalls ();
  fig_failover ()
