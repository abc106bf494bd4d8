(* Unified observability: span tracing, the metrics registry and the
   simulated-cycle profiler.

   Two acts:
   1. the profiler over a DPS-partitioned hash table — where do the cycles
      of a delegated workload actually go (dispatch, await spin, memory,
      coherence stalls, parking), plus the metrics registry unifying
      [Machine.stats] and [Dps.health] behind one namespace;
   2. a traced memcached fleet — network rx/parse/serve/tx and delegation
      issue/ring/dispatch/completion as Chrome trace events, exported to
      the path named by DPS_TRACE and loadable in Perfetto or
      chrome://tracing.

   Run with: DPS_TRACE=out.json dune exec examples/trace_demo.exe *)

module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Hashtable = Dps_ds.Hashtable
module Net = Dps_net.Net
module Server = Dps_server.Server
module Netload = Dps_workload.Netload
module Variants = Dps_memcached.Variants
module Obs = Dps_obs.Obs
module Registry = Dps_obs.Registry

(* --- Act 1: the profiler on a delegated hash-table workload ------------- *)

let profiled_hashtable () =
  print_endline "--- profile: 20 clients, 2 localities, delegated inserts ---";
  Obs.start ~tracing:false ~profiling:true ();
  let machine = Machine.create Machine.config_default in
  let sched = Sthread.create machine in
  let dps =
    Dps.create sched ~nclients:20 ~locality_size:10
      ~hash:(fun key -> key)
      ~mk_data:(fun (info : Dps.partition_info) -> Hashtable.create info.Dps.alloc)
      ()
  in
  for client = 0 to 19 do
    Sthread.spawn sched ~hw:(Dps.client_hw dps client) (fun () ->
        Dps.attach dps ~client;
        for i = 0 to 49 do
          let key = (client * 50) + i in
          ignore
            (Dps.call dps ~key (fun ht ->
                 if Hashtable.insert ht ~key ~value:(7 * key) then 1 else 0))
        done;
        Dps.client_done dps;
        Dps.drain dps)
  done;
  Sthread.run sched;
  Obs.stop ();
  (* the flamegraph: self cycles by class, inclusive totals per phase *)
  Format.printf "%a@." Obs.pp_profile ();
  (* one registry unifies the machine's coherence counters and the DPS
     runtime's health gauges under stable metric names *)
  let reg = Registry.create () in
  Machine.register_obs machine reg;
  Dps.register_obs dps reg;
  let interesting = [ "dps.delegated_ops"; "dps.local_ops"; "machine.remote_misses" ] in
  List.iter
    (fun s ->
      if List.mem s.Registry.name interesting then
        match s.Registry.value with
        | Registry.Gauge_v v -> Printf.printf "  %-20s %.0f\n" s.Registry.name v
        | _ -> ())
    (Registry.snapshot reg);
  print_newline ()

(* --- Act 2: a traced memcached fleet ------------------------------------ *)

let traced_fleet () =
  print_endline "--- trace: memcached fleet over the simulated network ---";
  Obs.start ~tracing:true ~profiling:true ();
  let items = 1024 in
  let m = Machine.create (Machine.config_scaled ()) in
  let sched = Sthread.create m in
  let net = Net.create sched () in
  (* dps_mc delegates gets synchronously, so the trace carries the full
     async lifecycle of each delegation: issue -> sent -> dispatch -> done *)
  let backend =
    Variants.dps_mc sched ~nclients:20 ~locality_size:10 ~buckets:items ~capacity:(2 * items) ()
  in
  backend.Variants.populate ~keys:(Array.init items Fun.id) ~val_lines:2;
  let srv = Server.start sched net ~backend { Server.default_config with npollers = 20 } in
  let sp = Netload.spec ~nclients:200 ~nconns:16 ~set_pct:10 ~key_range:items ~seed:7L () in
  let rr =
    Netload.run_routed sched (Netload.single net) (Netload.rspec ~base:sp ()) ~duration:100_000
      ~stop:(fun () -> Server.stop srv)
      ()
  in
  let r = rr.Netload.agg in
  Obs.stop ();
  Printf.printf "  %d requests completed, %d trace events collected\n" r.Netload.completed
    (Obs.event_count ());
  (match Obs.validate () with
  | Ok () -> print_endline "  trace well-formed: spans balanced, timestamps monotone"
  | Error e -> Printf.printf "  TRACE INVALID: %s\n" e);
  (* per-core charged cycles and the server-side flamegraph *)
  Format.printf "%a@." Obs.pp_profile ();
  let reg = Registry.create () in
  Net.register_obs net reg;
  Server.register_obs srv reg;
  Format.printf "%a@." Registry.pp reg;
  match Obs.trace_path_from_env () with
  | Some path ->
      Obs.write_chrome path;
      Printf.printf "  trace written to %s — load it in Perfetto (ui.perfetto.dev)\n" path
  | None ->
      print_endline "  set DPS_TRACE=out.json to export this trace for Perfetto"

let () =
  profiled_hashtable ();
  traced_fleet ()
