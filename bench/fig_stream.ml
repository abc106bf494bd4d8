(** STREAM-like bandwidth calibration and the delegation bytes A/B.

    The sweep runs copy/triad streaming kernels (factor-16 memory-level
    parallelism, disjoint per-thread arrays) on 1..N cores of socket 0
    against local, remote and interleaved placements, with the token
    buckets of {!Dps_machine.Costs.bw_default} enabled. Per-socket
    throughput rises linearly until a bucket saturates, then flattens: the
    saturation knee. Remote placement knees earlier and lower (the
    inbound link is narrower than a memory controller) — the shape that
    pins the bucket parameters.

    The A/B runs the coalescible delegation workload under
    {!Dps_machine.Costs.bw_unlimited} — the default machine plus byte
    counters — and reports interconnect bytes per operation for
    DPS vs ffwd.
    DPS's socket-local client-to-leader rings move fewer cross-socket
    bytes per op than ffwd's all-sockets-to-server rings. *)

open Bench_common
module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Costs = Dps_machine.Costs
module Sthread = Dps_sthread.Sthread
module Driver = Dps_workload.Driver
module Simops = Dps_sthread.Simops
module Prng = Dps_simcore.Prng
module Ffwd = Dps_ffwd.Ffwd

let mlp_factor = 16
let chunk = 64 (* lines per measured op *)
let array_lines = 16384 (* per array: well past the scaled LLC *)

type kernel = Copy | Triad
type place = Local | Remote | Interleaved

let kernel_name = function Copy -> "copy" | Triad -> "triad"
let place_name = function Local -> "local" | Remote -> "remote" | Interleaved -> "interleave"

(* Lines the kernel touches per element: one read + one write (copy),
   two reads + one write (triad). *)
let lines_per_elem = function Copy -> 2 | Triad -> 3

let policy_of = function
  | Local -> Machine.On_node 0
  | Remote -> Machine.On_node 1
  | Interleaved -> Machine.Interleave

(* Scaled caches (so the arrays stream past the LLC) with the calibrated
   bandwidth ceilings switched on. *)
let bw_config = { scaled_config with Machine.costs = { Costs.default with Costs.bw = Costs.bw_default } }

(* One point: [cores] threads, one per physical core of socket 0, each
   streaming its own arrays. Returns kernel bytes moved per cycle (reads
   plus writes at 64 B per line, the STREAM convention — write-allocate
   and write-back traffic is the machine's business, not the kernel's). *)
let run_stream ~kernel ~place ~cores ~duration =
  let m = Machine.create bw_config in
  let topo = Machine.topology m in
  let sched = Sthread.create m in
  let pol = policy_of place in
  let arrays =
    Array.init cores (fun _ ->
        Array.init (lines_per_elem kernel) (fun _ -> Machine.alloc m pol ~lines:array_lines))
  in
  let cursors = Array.make cores 0 in
  let placement = Array.init cores (fun i -> i * topo.Topology.threads_per_core) in
  let op ~tid ~step:_ =
    let arr = arrays.(tid) in
    let cur = cursors.(tid) in
    (match kernel with
    | Copy ->
        for i = 0 to chunk - 1 do
          let off = (cur + i) mod array_lines in
          Sthread.access_pipelined ~factor:mlp_factor ~kind:Machine.Read (arr.(0) + off);
          Sthread.access_pipelined ~factor:mlp_factor ~kind:Machine.Write (arr.(1) + off)
        done
    | Triad ->
        for i = 0 to chunk - 1 do
          let off = (cur + i) mod array_lines in
          Sthread.access_pipelined ~factor:mlp_factor ~kind:Machine.Read (arr.(0) + off);
          Sthread.access_pipelined ~factor:mlp_factor ~kind:Machine.Read (arr.(1) + off);
          Sthread.access_pipelined ~factor:mlp_factor ~kind:Machine.Write (arr.(2) + off)
        done);
    cursors.(tid) <- (cur + chunk) mod array_lines
  in
  let r = Driver.measure ~sched ~threads:cores ~placement ~duration ~op () in
  let bytes = r.Driver.ops * chunk * lines_per_elem kernel * 64 in
  float_of_int bytes /. float_of_int r.Driver.duration_cycles

(* The saturation knee: the first core count reaching 85% of the sweep's
   plateau (its maximum). Below the knee throughput scales with cores;
   past it the bucket is the limit. *)
let knee_of points =
  let plateau = List.fold_left (fun acc (_, bpc) -> Float.max acc bpc) 0. points in
  let rec find = function
    | [] -> (0, plateau)
    | (c, bpc) :: rest -> if bpc >= 0.85 *. plateau then (c, plateau) else find rest
  in
  find points

let stream_cores = if quick then [ 1; 2; 4; 8 ] else [ 1; 2; 3; 4; 6; 8; 10 ]

let sweep () =
  print_header "STREAM: per-socket throughput vs streaming cores (B/cycle)";
  Printf.printf "x = cores on socket 0 (placement: array home)\n";
  let series =
    List.concat_map
      (fun kernel ->
        List.map
          (fun place ->
            ( Printf.sprintf "%s/%s" (kernel_name kernel) (place_name place),
              List.map
                (fun cores ->
                  ( string_of_int cores,
                    fun () -> run_stream ~kernel ~place ~cores ~duration:default_duration ))
                stream_cores ))
          [ Local; Remote; Interleaved ])
      [ Copy; Triad ]
  in
  let results = run_series series in
  List.iter
    (fun (label, pts) ->
      List.iter (fun (x, bpc) -> json_record ~series:label ~x [ ("bytes_per_cycle", bpc) ]) pts;
      Printf.printf "%-16s %s\n" label
        (String.concat "  " (List.map (fun (x, _) -> Printf.sprintf "%8s" x) pts));
      Printf.printf "%-16s %s\n%!" ""
        (String.concat "  " (List.map (fun (_, bpc) -> Printf.sprintf "%8.2f" bpc) pts)))
    results;
  (* knees from the same points: greppable one-liners *)
  List.iter
    (fun (label, pts) ->
      let points = List.map (fun (x, bpc) -> (int_of_string x, bpc)) pts in
      let kn, plateau = knee_of points in
      json_record ~series:(label ^ "/knee") ~x:(string_of_int kn)
        [ ("plateau_bytes_per_cycle", plateau) ];
      Printf.printf "STREAM %s knee=%d cores plateau=%.2f B/cycle\n%!" label kn plateau)
    results

(* Interconnect bytes per delegated operation, DPS vs ffwd, on the
   coalescible window workload of bench/fig_batch (each step issues a
   window of small operations against one partition/shard, then awaits
   them). DPS runs with sender-side coalescing on — up to 7 descriptors
   cross the interconnect as one message line — while ffwd's protocol
   inherently posts one request line per operation. Buckets are
   [bw_unlimited]: charges are exactly the bandwidth-off machine's, the
   byte counters just run. *)
let ab_threads = 80
let ab_window = 7
let ab_op_len = 50

let ab_config =
  { full_config with Machine.costs = { Costs.default with Costs.bw = Costs.bw_unlimited } }

let run_ab_dps () =
  let m = Machine.create ab_config in
  let sched = Sthread.create m in
  let dps =
    Dps.create sched ~nclients:ab_threads ~locality_size:10 ~batch:7 ~batch_age:1500
      ~hash:(fun k -> k)
      ~mk_data:(fun _ -> ())
      ()
  in
  let nparts = Dps.npartitions dps in
  let op ~tid:_ ~step:_ =
    let p = Sthread.self_prng () in
    let base = Prng.int p nparts in
    let pending =
      Array.init ab_window (fun _ ->
          let key = base + (nparts * Prng.int p 64) in
          Dps.execute dps ~key (fun () ->
              Simops.work ab_op_len;
              0))
    in
    Array.iter (fun c -> ignore (Dps.await dps c)) pending
  in
  let placement = Array.init ab_threads (Dps.client_hw dps) in
  let r =
    Driver.measure ~sched ~threads:ab_threads ~placement ~duration:default_duration
      ~prologue:(fun ~tid -> Dps.attach dps ~client:tid)
      ~epilogue:(fun ~tid:_ ->
        Dps.client_done dps;
        Dps.drain dps)
      ~op ()
  in
  (r, float_of_int (Machine.interconnect_bytes m) /. float_of_int (r.Driver.ops * ab_window))

let run_ab_ffwd ~servers =
  let m = Machine.create ab_config in
  let topo = Machine.topology m in
  let sched = Sthread.create m in
  let server_hw =
    Array.init servers (fun i ->
        i * topo.Topology.cores_per_socket * topo.Topology.threads_per_core)
  in
  let f = Ffwd.create sched ~server_hw ~clients:ab_threads in
  let all =
    Topology.placement topo ~n:(min (Topology.nthreads topo) (ab_threads + servers))
  in
  let server_set = Array.to_list server_hw in
  let client_hws =
    Array.of_list (List.filter (fun hw -> not (List.mem hw server_set)) (Array.to_list all))
  in
  let placement =
    Array.init ab_threads (fun i -> client_hws.(i mod Array.length client_hws))
  in
  let op ~tid:_ ~step:_ =
    let p = Sthread.self_prng () in
    let server = Prng.int p servers in
    for _ = 1 to ab_window do
      ignore
        (Ffwd.call f ~server (fun () ->
             Simops.work ab_op_len;
             0))
    done
  in
  let r =
    Driver.measure ~sched ~threads:ab_threads ~placement ~duration:default_duration
      ~prologue:(fun ~tid -> Ffwd.attach f ~client:tid)
      ~epilogue:(fun ~tid:_ -> Ffwd.client_done f)
      ~op ()
  in
  (r, float_of_int (Machine.interconnect_bytes m) /. float_of_int (r.Driver.ops * ab_window))

let deleg_ab () =
  print_header
    (Printf.sprintf
       "STREAM A/B: interconnect bytes per delegated op (windows of %d, %d-cycle ops, %d \
        threads)"
       ab_window ab_op_len ab_threads);
  match map_points (fun f -> f ()) [ run_ab_dps; (fun () -> run_ab_ffwd ~servers:4) ] with
  | [ (dps_r, dps_bpo); (ffwd_r, ffwd_bpo) ] ->
      json_record ~series:"bytes_per_op" ~x:"DPS"
        [ ("bytes_per_op", dps_bpo); ("throughput_mops", dps_r.Driver.throughput_mops) ];
      json_record ~series:"bytes_per_op" ~x:"ffwd-s4"
        [ ("bytes_per_op", ffwd_bpo); ("throughput_mops", ffwd_r.Driver.throughput_mops) ];
      Printf.printf "STREAM deleg-bytes DPS=%.2f B/op ffwd-s4=%.2f B/op ratio=%.2fx\n%!" dps_bpo
        ffwd_bpo
        (if dps_bpo > 0. then ffwd_bpo /. dps_bpo else Float.infinity)
  | _ -> assert false

let all () =
  sweep ();
  deleg_ab ()
