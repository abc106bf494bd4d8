(** Ablations over DPS's design knobs, as called out in DESIGN.md:

    - locality size (§4.1: "choose the locality size smaller than the
      scalability knee"; §5.2 notes bst localities "might benefit from
      being larger");
    - check budget (§4.3's local/remote latency trade);
    - ring slots (§4.4 asynchronous execution backpressure);
    - dedicated pollers (§4.4 liveness) under busy clients. *)

open Bench_common
module Sthread = Dps_sthread.Sthread
module Prng = Dps_simcore.Prng
module Driver = Dps_workload.Driver

let locality_size () =
  print_header "Ablation: DPS locality size (bst-tk, skewed 4K, 50% update, 80 threads)";
  let sizes = if quick then [ 5; 10; 40 ] else [ 5; 10; 20; 40 ] in
  let pts =
    map_points
      (fun ls ->
        ( string_of_int ls,
          run_dps
            (module Dps_ds.Bst_tk)
            ~config:full_config ~locality_size:ls
            (workload ~threads:80 ~size:4096 ~update_pct:50 ~skewed:true ()) ))
      sizes
  in
  Printf.printf "x = hyperthreads per locality (partitions = 80/x)\n";
  print_series ~label:"DPS/bst-tk" pts

let check_budget () =
  print_header
    "Ablation: check budget (serves per own-completion check; 500-cycle ops, 80 threads)";
  Printf.printf "%-8s %12s %10s %10s\n" "budget" "Mops/s" "p50" "p99";
  List.iter
    (fun (b, r) ->
      Printf.printf "%-8d %12.3f %10d %10d\n%!" b r.Driver.throughput_mops r.Driver.p50
        r.Driver.p99;
      json_record ~series:"check_budget" ~x:(string_of_int b)
        [
          ("throughput_mops", r.Driver.throughput_mops);
          ("p50", float_of_int r.Driver.p50);
          ("p99", float_of_int r.Driver.p99);
        ])
    (map_points
       (fun b ->
         ( b,
           Fig_deleg.run ~check_budget:b ~mode:Fig_deleg.Dps_sync ~threads:80 ~op_len:500 ~delay:0
             ~duration:default_duration () ))
       (if quick then [ 1; 4; 32 ] else [ 1; 2; 4; 8; 16; 32 ]))

let ring_slots () =
  print_header "Ablation: ring slots (asynchronous flood, 500-cycle ops + 1000-cycle delay)";
  Printf.printf "%-8s %12s\n" "slots" "Mops/s";
  List.iter
    (fun (n, r) ->
      Printf.printf "%-8d %12.3f\n%!" n r.Driver.throughput_mops;
      json_record ~series:"ring_slots" ~x:(string_of_int n)
        [ ("throughput_mops", r.Driver.throughput_mops) ])
    (map_points
       (fun n ->
         ( n,
           Fig_deleg.run ~ring_slots:n ~mode:Fig_deleg.Dps_async ~threads:80 ~op_len:500 ~delay:1000
             ~duration:default_duration () ))
       (if quick then [ 2; 16 ] else [ 2; 4; 16; 64 ]))

let pollers () =
  print_header "Ablation: dedicated pollers under busy localities (§4.4 liveness)";
  let run ~poller =
    let m = Dps_machine.Machine.create full_config in
    let sched = Sthread.create m in
    let dps =
      Dps.create sched ~nclients:20 ~locality_size:10 ~hash:Fun.id
        ~serving:(if poller then Dps.pollers else Dps.Owner)
        ~mk_data:(fun _ -> ())
        ()
    in
    if poller then Sthread.spawn sched ~hw:21 (fun () -> Dps.run_poller dps ~pid:1);
    let hist = Dps_simcore.Histogram.create () in
    for c = 0 to 19 do
      Sthread.spawn sched ~hw:(Dps.client_hw dps c) (fun () ->
          Dps.attach dps ~client:c;
          if c < 10 then
            (* locality 0: delegate to locality 1 and measure latency *)
            for _ = 1 to 20 do
              let t0 = Sthread.time () in
              ignore (Dps.call dps ~key:1 (fun () -> 0));
              Dps_simcore.Histogram.add hist (Sthread.time () - t0)
            done
          else begin
            (* locality 1: mostly busy outside DPS *)
            for _ = 1 to 10 do
              Sthread.work 20_000;
              ignore (Dps.serve dps ~max:4)
            done
          end;
          Dps.client_done dps;
          Dps.drain dps)
    done;
    Sthread.run sched;
    hist
  in
  let no_poller, with_poller =
    match map_points (fun poller -> run ~poller) [ false; true ] with
    | [ a; b ] -> (a, b)
    | _ -> assert false
  in
  Printf.printf "%-12s %10s %10s\n" "mode" "p50" "p99";
  List.iter
    (fun (mode, hist) ->
      let p50 = Dps_simcore.Histogram.percentile hist 0.5
      and p99 = Dps_simcore.Histogram.percentile hist 0.99 in
      Printf.printf "%-12s %10d %10d\n%!" mode p50 p99;
      json_record ~series:"pollers" ~x:mode
        [ ("p50", float_of_int p50); ("p99", float_of_int p99) ])
    [ ("no poller", no_poller); ("poller", with_poller) ]

(* The lock family on the contended r/w-object workload — the
   related-work alternatives (Dice et al.) to DPS's restructuring, now
   including CNA, the lock behind adaptive delegation's direct mode. Two
   regimes bracket the adaptive controller's decision: [objects = 64]
   keeps every lock contended (delegation's home turf), [objects = 4096]
   makes collisions rare (where direct locking must hold its own). *)
let lock_family () =
  let run_lock ~objects mk_lock =
    let m = Dps_machine.Machine.create full_config in
    let sched = Sthread.create m in
    let alloc = Dps_sthread.Alloc.create m ~cold:Dps_sthread.Alloc.Spread in
    let o =
      Dps_ds.Rw_object.create m Dps_machine.Machine.Interleave ~objects ~lines:8 ~write_lines:8
    in
    let locks = Array.init objects (fun _ -> mk_lock alloc m) in
    Driver.measure ~sched ~threads:80 ~duration:default_duration
      ~op:(fun ~tid:_ ~step:_ ->
        let p = Sthread.self_prng () in
        let i = Prng.int p objects in
        let acquire, release = locks.(i) in
        acquire ();
        Dps_ds.Rw_object.operate o i;
        release ())
      ()
  in
  let family =
    [
      ( "mcs",
        fun alloc _ ->
          let l = Dps_sync.Mcs.create alloc in
          ((fun () -> Dps_sync.Mcs.acquire l), fun () -> Dps_sync.Mcs.release l) );
      ( "ticket",
        fun alloc _ ->
          let l = Dps_sync.Ticket.create alloc in
          ((fun () -> Dps_sync.Ticket.acquire l), fun () -> Dps_sync.Ticket.release l) );
      ( "cohort",
        fun alloc m ->
          let l = Dps_sync.Cohort.create alloc m in
          ((fun () -> Dps_sync.Cohort.acquire l), fun () -> Dps_sync.Cohort.release l) );
      ( "cna",
        fun alloc m ->
          let l = Dps_sync.Cna.create alloc m in
          ((fun () -> Dps_sync.Cna.acquire l), fun () -> Dps_sync.Cna.release l) );
    ]
  in
  let regime ~objects ~tag =
    print_header
      (Printf.sprintf "Ablation: lock family, %s (%d objects x 8 lines, 80 threads)" tag objects);
    Printf.printf "%-8s %12s %10s\n" "lock" "Mops/s" "p99";
    List.iter
      (fun (name, r) ->
        Printf.printf "%-8s %12.3f %10d\n%!" name r.Driver.throughput_mops r.Driver.p99;
        json_record ~series:("locks/" ^ tag) ~x:name
          [ ("throughput_mops", r.Driver.throughput_mops); ("p99", float_of_int r.Driver.p99) ])
      (map_points (fun (name, mk) -> (name, run_lock ~objects mk)) family)
  in
  regime ~objects:64 ~tag:"contended";
  regime ~objects:4096 ~tag:"sparse"

let all () =
  locality_size ();
  lock_family ();
  check_budget ();
  ring_slots ();
  pollers ()
