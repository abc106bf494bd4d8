(** Delegation microbenchmarks: Figure 3 (throughput vs operation length),
    Figure 6(a) (throughput vs cores, empty and 500-cycle operations) and
    Figure 6(b) (responsiveness vs inter-operation delay, with the
    asynchronous DPS optimisation). The "data structure operation" is a
    pure spin of the given length, as in §5.1. *)

open Bench_common
module Sthread = Dps_sthread.Sthread
module Prng = Dps_simcore.Prng
module Driver = Dps_workload.Driver

type mode = Dps_sync | Dps_async | Ffwd_servers of int

(* One run: [threads] clients issue spin-operations of [op_len] cycles on
   uniformly random keys, pausing [delay] cycles between operations.
   [config] overrides the machine (the bandwidth A/B runs with token
   buckets on); [on_machine] observes the machine after the measurement
   (e.g. to read bandwidth byte counters); [ring_slots] and
   [check_budget] pass through to {!Dps.create} for the ablations. *)
let run ?(config = full_config) ?(on_machine = fun (_ : Dps_machine.Machine.t) -> ()) ?ring_slots
    ?check_budget ~mode ~threads ~op_len ~delay ~duration () =
  let m = Dps_machine.Machine.create config in
  let sched = Sthread.create m in
  let spin () =
    if op_len > 0 then Sthread.work op_len;
    0
  in
  let result =
    match mode with
    | Dps_sync | Dps_async ->
        let dps =
          Dps.create sched ~nclients:threads ~locality_size:10 ?ring_slots ?check_budget
            ~hash:(fun k -> k)
            ~mk_data:(fun _ -> ())
            ()
        in
        let nparts = Dps.npartitions dps in
        let op ~tid:_ ~step:_ =
          let p = Sthread.self_prng () in
          let key = Prng.int p (64 * nparts) in
          (match mode with
          | Dps_sync -> ignore (Dps.call dps ~key (fun () -> spin ()))
          | Dps_async | Ffwd_servers _ -> Dps.execute_async dps ~key (fun () -> spin ()));
          if delay > 0 then Sthread.work delay
        in
        measure_dps ~sched dps ~threads ~duration ~op ()
    | Ffwd_servers servers ->
        let f = Ffwd.create sched ~server_hw:(ffwd_server_hw m ~servers) ~clients:threads in
        let op ~tid:_ ~step:_ =
          let p = Sthread.self_prng () in
          ignore (Ffwd.call f ~server:(Prng.int p servers) spin);
          if delay > 0 then Sthread.work delay
        in
        measure_ffwd ~sched f ~threads ~duration ~op ()
  in
  on_machine m;
  result

let fig3 () =
  print_header "Figure 3: throughput vs data-structure operation length (80 threads)";
  let lengths = if quick then [ 0; 500; 2000 ] else [ 0; 400; 800; 1200; 1600; 2000 ] in
  let series name mode =
    ( name,
      List.map
        (fun len ->
          ( string_of_int len,
            fun () -> run ~mode ~threads:80 ~op_len:len ~delay:0 ~duration:default_duration () ))
        lengths )
  in
  Printf.printf "x = operation length (cycles)\n";
  List.iter
    (fun (label, pts) -> print_series ~label pts)
    (run_series
       [
         series "DPS" Dps_sync;
         series "ffwd-s1" (Ffwd_servers 1);
         series "ffwd-s4" (Ffwd_servers 4);
       ])

let fig6a () =
  print_header "Figure 6(a): delegation throughput vs cores (empty / 500-cycle ops)";
  let series name mode op_len =
    ( name,
      List.map
        (fun n ->
          ( string_of_int n,
            fun () -> run ~mode ~threads:n ~op_len ~delay:0 ~duration:default_duration () ))
        core_counts )
  in
  Printf.printf "x = cores\n";
  List.iter
    (fun (label, pts) -> print_series ~label pts)
    (run_series
       [
         series "DPS" Dps_sync 0;
         series "ffwd-s1" (Ffwd_servers 1) 0;
         series "ffwd-s4" (Ffwd_servers 4) 0;
         series "DPS-500" Dps_sync 500;
         series "ffwd-s1-500" (Ffwd_servers 1) 500;
         series "ffwd-s4-500" (Ffwd_servers 4) 500;
       ])

let fig6b () =
  print_header "Figure 6(b): throughput vs inter-operation delay (80 threads, empty ops)";
  let delays = if quick then [ 0; 4000; 10000 ] else [ 0; 2000; 4000; 6000; 8000; 10000 ] in
  let series name mode =
    ( name,
      List.map
        (fun d ->
          ( string_of_int d,
            fun () -> run ~mode ~threads:80 ~op_len:0 ~delay:d ~duration:default_duration () ))
        delays )
  in
  Printf.printf "x = delay between operations (cycles)\n";
  List.iter
    (fun (label, pts) -> print_series ~label pts)
    (run_series
       [ series "DPS" Dps_sync; series "DPS-a" Dps_async; series "ffwd-s4" (Ffwd_servers 4) ])

let all () =
  fig3 ();
  fig6a ();
  fig6b ()
