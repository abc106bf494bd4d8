(** Atomic read/write-object microbenchmarks: Figures 7(a–d) and 8(a–d)
    plus Table 2 (the 5 GB working set). Compared techniques, as in §5.1:
    one MCS lock per object ([mcs]), ffwd with four servers and a static
    sharding ([ffwd-s4]), and DPS with the same MCS locking inside each
    locality ([DPS]). *)

open Bench_common
module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Prng = Dps_simcore.Prng
module Driver = Dps_workload.Driver
module Rw = Dps_ds.Rw_object
module Mcs = Dps_sync.Mcs
module Ffwd = Dps_ffwd.Ffwd

type technique = Mcs_locks | Ffwd_s4 | Dps_rw

(* Scale big line counts down with the machine (factor 16) for the Table 2
   case only; Figures 7/8 fit the full-size machine. [window]: Table 2
   operations touch a random slice of each huge object rather than all of
   it. *)
let run ~config ~technique ~threads ~objects ~lines ~write_lines ?window
    ?(policy = Machine.Interleave) ?min_ops ~duration () =
  let op_on o i = match window with
    | None -> Rw.operate o i
    | Some w -> Rw.operate_window o i ~window:w
  in
  let m = Machine.create config in
  let topo = Machine.topology m in
  let sched = Sthread.create m in
  match technique with
  | Mcs_locks ->
      let o = Rw.create m policy ~objects ~lines ~write_lines in
      let alloc = Alloc.create m ~cold:Alloc.Spread in
      let locks = Array.init objects (fun _ -> Mcs.create alloc) in
      Driver.measure ~sched ~threads ~duration ?min_ops
        ~op:(fun ~tid:_ ~step:_ ->
          let p = Sthread.self_prng () in
          let i = Prng.int p objects in
          Mcs.acquire locks.(i);
          op_on o i;
          Mcs.release locks.(i))
        ()
  | Ffwd_s4 ->
      let servers = 4 in
      (* shard i belongs to server (i mod 4); memory homed on that socket *)
      let o =
        Rw.create_partitioned m ~node_of:(fun i -> i mod servers) ~objects ~lines ~write_lines
      in
      let f = Ffwd.create sched ~server_hw:(ffwd_server_hw m ~servers) ~clients:threads in
      measure_ffwd ~sched f ~threads ~duration ?min_ops
        ~op:(fun ~tid:_ ~step:_ ->
          let p = Sthread.self_prng () in
          let i = Prng.int p objects in
          ignore
            (Ffwd.call f ~server:(i mod servers) (fun () ->
                 op_on o i;
                 0)))
        ()
  | Dps_rw ->
      let dps =
        Dps.create sched ~nclients:threads ~locality_size:10
          ~hash:(fun k -> k)
          ~mk_data:(fun (info : Dps.partition_info) ->
            Mcs.create info.Dps.alloc (* per-object locks created below *))
          ()
      in
      let nparts = Dps.npartitions dps in
      (* object i -> partition (i mod nparts); homed on that partition *)
      let node_of i =
        let pid = i mod nparts in
        let placed = Topology.placement topo ~n:threads in
        Topology.socket_of_thread topo placed.(pid * 10)
      in
      let o = Rw.create_partitioned m ~node_of ~objects ~lines ~write_lines in
      let alloc = Alloc.create m ~cold:Alloc.Spread in
      let locks = Array.init objects (fun _ -> Mcs.create alloc) in
      measure_dps ~sched dps ~threads ~duration ?min_ops
        ~op:(fun ~tid:_ ~step:_ ->
          let p = Sthread.self_prng () in
          let i = Prng.int p objects in
          ignore
            (Dps.call dps ~key:i (fun _ ->
                 Mcs.acquire locks.(i);
                 op_on o i;
                 Mcs.release locks.(i);
                 0)))
        ()

let techniques = [ ("mcs", Mcs_locks); ("ffwd-s4", Ffwd_s4); ("DPS", Dps_rw) ]

let panel ~title ~objects ~lines =
  print_header title;
  Printf.printf "x = cores (%d objects, %d modified lines each)\n" objects lines;
  List.iter
    (fun (label, pts) -> print_series ~label pts)
    (run_series
       (List.map
          (fun (name, technique) ->
            ( name,
              List.map
                (fun n ->
                  ( string_of_int n,
                    fun () ->
                      run ~config:full_config ~technique ~threads:n ~objects ~lines
                        ~write_lines:lines ~duration:default_duration () ))
                core_counts ))
          techniques))

let fig7 () =
  panel ~title:"Figure 7(a): 64 objects x 4 cache lines" ~objects:64 ~lines:4;
  panel ~title:"Figure 7(b): 64 objects x 64 cache lines" ~objects:64 ~lines:64;
  panel ~title:"Figure 7(c): 512 objects x 64 cache lines" ~objects:512 ~lines:64;
  panel ~title:"Figure 7(d): 512 objects x 4 cache lines" ~objects:512 ~lines:4

let fig8 () =
  print_header "Figure 8(a)/(c): 80 cores, 32-line objects, sweep #objects";
  let object_counts = if quick then [ 16; 256; 2048 ] else [ 16; 64; 256; 1024; 2048 ] in
  List.iter
    (fun (label, pts) ->
      print_series ~label pts;
      print_misses ~label pts)
    (run_series
       (List.map
          (fun (name, technique) ->
            ( name,
              List.map
                (fun objects ->
                  ( string_of_int objects,
                    fun () ->
                      run ~config:full_config ~technique ~threads:80 ~objects ~lines:32
                        ~write_lines:32 ~duration:default_duration () ))
                object_counts ))
          techniques));
  print_header "Figure 8(b)/(d): 80 cores, 128 objects, sweep modified lines";
  let line_counts = if quick then [ 4; 24; 64 ] else [ 4; 14; 24; 34; 44; 54; 64 ] in
  List.iter
    (fun (label, pts) ->
      print_series ~label pts;
      print_misses ~label pts)
    (run_series
       (List.map
          (fun (name, technique) ->
            ( name,
              List.map
                (fun lines ->
                  (* the modified working set IS the operation: objects sized
                     to the modified line count, all of it written *)
                  ( string_of_int lines,
                    fun () ->
                      run ~config:full_config ~technique ~threads:80 ~objects:128 ~lines
                        ~write_lines:lines ~duration:default_duration () ))
                line_counts ))
          techniques))

let table2 () =
  print_header "Table 2: 5 GB working set (512 x 10 MB objects; scaled /16), ops/s";
  (* 10 MB = 163840 lines; scaled by 16 -> 10240 lines per object. Each
     operation reads and writes a random 64-line slice of one object. *)
  let lines = 10240 in
  let objects = 512 in
  let rows =
    map_points
      (fun (label, technique, policy) ->
        let r =
          run ~config:scaled_config ~technique ~threads:80 ~objects ~lines ~write_lines:16
            ~window:64 ~policy ~duration:300_000 ()
        in
        (label, r.Driver.throughput_mops *. 1e6))
      [
        ("MCS (local)", Mcs_locks, Machine.On_node 0);
        ("MCS (interleave)", Mcs_locks, Machine.Interleave);
        ("ffwd-s4", Ffwd_s4, Machine.Interleave);
        ("DPS", Dps_rw, Machine.Interleave);
      ]
  in
  Printf.printf "%-18s %12s\n" "technique" "ops/s";
  List.iter
    (fun (label, ops) ->
      Printf.printf "%-18s %12.0f\n%!" label ops;
      json_record ~series:"table2" ~x:label [ ("throughput_mops", ops /. 1e6) ])
    rows

let all () =
  fig7 ();
  fig8 ();
  table2 ()
