(** Shared plumbing for the paper-figure benchmarks: building machines,
    drawing population keys, placing and retiring DPS and ffwd clients, and
    running the set benchmark of §5.2 under the shared-memory, ffwd and
    DPS harnesses (which [bin/dps_bench] also runs, one point at a time). *)

module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Prng = Dps_simcore.Prng
module Keydist = Dps_workload.Keydist
module Driver = Dps_workload.Driver
module Ffwd = Dps_ffwd.Ffwd

module type SET = Dps_ds.Set_intf.SET
module Par = Dps_simcore.Par
module Json = Dps_obs.Json

let quick = Sys.getenv_opt "BENCH_QUICK" <> None

(* --- domain-parallel experiment runner ---

   Experiment points are independent single-threaded simulations (each
   harness below builds its own machine, scheduler and PRNGs), so a figure
   fans its points out across OCaml domains and merges results in point
   order. The determinism contract: every point computes exactly what it
   computes under [-j1] (no shared mutable state), and all printing / JSON
   recording happens on the main domain after the fan-out — so stdout and
   BENCH_*.json are byte-identical for every [-j].

   The profiler/tracer ([Dps_obs.Obs]) is global state by design
   (bit-identical-off contract, DESIGN.md §6); when it is on, the runner
   degrades to sequential rather than interleave observability streams. *)

let jobs =
  ref
    (match Sys.getenv_opt "BENCH_JOBS" with
    | Some s -> ( match int_of_string_opt (String.trim s) with Some n when n >= 1 -> n | _ -> 1)
    | None -> 1)

let set_jobs n = jobs := max 1 n
let runner_jobs () = !jobs

let run_all thunks =
  let effective = if Dps_obs.Obs.on () then 1 else !jobs in
  Par.map ~jobs:effective thunks

(* Evaluate [f] over [xs] with results in list order; the workhorse for
   figure drivers ("compute all points, then print"). *)
let map_points f xs = Array.to_list (run_all (Array.of_list (List.map (fun x () -> f x) xs)))

(* Evaluate a whole figure's (series x point) grid in one fan-out — the
   thunks flatten row-major, so a slow series overlaps the others — and
   return it reshaped, ready to print in order. *)
let run_series (series : (string * (string * (unit -> 'r)) list) list) :
    (string * (string * 'r) list) list =
  let thunks = Array.of_list (List.concat_map (fun (_, pts) -> List.map snd pts) series) in
  let res = run_all thunks in
  let i = ref 0 in
  List.map
    (fun (label, pts) ->
      ( label,
        List.map
          (fun (x, _) ->
            let r = res.(!i) in
            incr i;
            (x, r))
          pts ))
    series

(* Full-size machine for contention experiments; capacity experiments use
   the scaled machine with working sets scaled the same way (factor 16), so
   the LLC knee falls at the same relative position. *)
let full_config = Machine.config_default
let scaled_config = Machine.config_scaled ()
let scale_factor = 16

let default_duration = if quick then 100_000 else 300_000

type workload = {
  threads : int;
  size : int;  (* initial key population *)
  update_pct : int;  (* 0..100 *)
  skewed : bool;
  duration : int;
  min_ops : int option;  (* per-thread floor, for very long operations *)
}

let workload ?(threads = 80) ?(size = 4096) ?(update_pct = 50) ?(skewed = true)
    ?(duration = default_duration) ?min_ops () =
  { threads; size; update_pct; skewed; duration; min_ops }

(* Distinct initial keys: odd keys so the benchmark key range (2x size)
   interleaves hits and misses, as in ASCYLIB's harness. *)
let population_keys ~size ~seed =
  let prng = Prng.create seed in
  let keys = Array.init size (fun i -> (2 * i) + 1) in
  for i = size - 1 downto 1 do
    let j = Prng.int prng (i + 1) in
    let tmp = keys.(i) in
    keys.(i) <- keys.(j);
    keys.(j) <- tmp
  done;
  keys

(* The §5.2 per-operation mix: pick a key from [0, 2*size), then update
   (half inserts, half removes) or lookup. *)
let mk_op_mix (w : workload) ~insert ~remove ~lookup =
  let dist =
    if w.skewed then Keydist.zipf ~range:(2 * w.size) ()
    else Keydist.uniform ~range:(2 * w.size)
  in
  fun ~tid:_ ~step:_ ->
    let p = Sthread.self_prng () in
    let key = Keydist.sample dist p in
    if Prng.int p 100 < w.update_pct then
      if Prng.bool p then insert key else remove key
    else lookup key

(* --- client placement and lifecycle, shared by every delegation figure --- *)

(* DPS clients run on DPS's own placement and attach before their first
   operation; on the way out each retires and drains its partition's
   rings, so no delegated operation is left unserved. *)
let measure_dps ~sched dps ~threads ~duration ?min_ops ~op () =
  Driver.measure ~sched ~threads
    ~placement:(Array.init threads (Dps.client_hw dps))
    ~duration ?min_ops
    ~prologue:(fun ~tid -> Dps.attach dps ~client:tid)
    ~epilogue:(fun ~tid:_ ->
      Dps.client_done dps;
      Dps.drain dps)
    ~op ()

(* ffwd servers take the first hardware thread of each socket. *)
let ffwd_server_hw m ~servers =
  let topo = Machine.topology m in
  Array.init servers (fun i -> i * topo.Topology.cores_per_socket * topo.Topology.threads_per_core)

(* ffwd clients take the default placement minus the server threads of
   [ffwd_server_hw], and retire when done so the servers can stop. *)
let measure_ffwd ~sched f ~threads ~duration ?min_ops ~op () =
  let m = Sthread.machine sched in
  let topo = Machine.topology m in
  let server_hw = ffwd_server_hw m ~servers:(Ffwd.nservers f) in
  let all =
    Topology.placement topo ~n:(min (Topology.nthreads topo) (threads + Array.length server_hw))
  in
  let client_hws =
    Array.of_list (List.filter (fun hw -> not (Array.mem hw server_hw)) (Array.to_list all))
  in
  Driver.measure ~sched ~threads
    ~placement:(Array.init threads (fun i -> client_hws.(i mod Array.length client_hws)))
    ~duration ?min_ops
    ~prologue:(fun ~tid -> Ffwd.attach f ~client:tid)
    ~epilogue:(fun ~tid:_ -> Ffwd.client_done f)
    ~op ()

(* --- shared-memory harness --- *)

let run_shared ?seed (module S : SET) ~config (w : workload) =
  let m = Machine.create ?seed config in
  let sched = Sthread.create m in
  let alloc = Alloc.create m ~cold:Alloc.Spread in
  let set = S.create alloc in
  S.populate set (population_keys ~size:w.size ~seed:11L);
  Driver.measure ~sched ~threads:w.threads ~duration:w.duration ?min_ops:w.min_ops
    ~op:
      (mk_op_mix w
         ~insert:(fun key -> ignore (S.insert set ~key ~value:key))
         ~remove:(fun key -> ignore (S.remove set key))
         ~lookup:(fun key -> ignore (S.lookup set key)))
    ()

(* --- DPS harness: one S.t per partition, locality of 10, as in §5 --- *)

(* Mix keys before the modulo so partition load does not depend on key
   parity or stride (populations use odd keys). *)
let partition_hash k = (k * 0x9E3779B1) lsr 8

let run_dps ?seed (module S : SET) ~config ?(locality_size = 10) (w : workload) =
  let m = Machine.create ?seed config in
  let sched = Sthread.create m in
  let dps =
    Dps.create sched ~nclients:w.threads ~locality_size
      ~hash:partition_hash
      ~mk_data:(fun (info : Dps.partition_info) -> S.create info.Dps.alloc)
      ()
  in
  let keys = population_keys ~size:w.size ~seed:11L in
  let nparts = Dps.npartitions dps in
  let parts = Array.make nparts [] in
  Array.iter
    (fun k -> parts.(Dps.partition_of_key dps k) <- k :: parts.(Dps.partition_of_key dps k))
    keys;
  for p = 0 to nparts - 1 do
    S.populate (Dps.partition_data dps p) (Array.of_list parts.(p))
  done;
  measure_dps ~sched dps ~threads:w.threads ~duration:w.duration ?min_ops:w.min_ops
    ~op:
      (mk_op_mix w
         ~insert:(fun key ->
           ignore (Dps.call dps ~key (fun s -> if S.insert s ~key ~value:key then 1 else 0)))
         ~remove:(fun key -> ignore (Dps.call dps ~key (fun s -> if S.remove s key then 1 else 0)))
         ~lookup:(fun key ->
           ignore
             (Dps.call dps ~key (fun s -> match S.lookup s key with Some v -> v | None -> -1))))
    ()

(* --- ffwd harness: data sharded across 1 or 4 dedicated servers --- *)

let run_ffwd ?seed (module S : SET) ~config ~servers (w : workload) =
  let m = Machine.create ?seed config in
  let topo = Machine.topology m in
  let sched = Sthread.create m in
  let server_hw = ffwd_server_hw m ~servers in
  let shards =
    Array.map
      (fun hw ->
        let node = Topology.socket_of_thread topo hw in
        S.create (Alloc.create m ~cold:(Alloc.Node node)))
      server_hw
  in
  let f = Ffwd.create sched ~server_hw ~clients:w.threads in
  let keys = population_keys ~size:w.size ~seed:11L in
  let per_shard = Array.make servers [] in
  Array.iter (fun k -> per_shard.(k mod servers) <- k :: per_shard.(k mod servers)) keys;
  for s = 0 to servers - 1 do
    S.populate shards.(s) (Array.of_list per_shard.(s))
  done;
  let shard_call key op =
    Ffwd.call f ~server:(key mod servers) (fun () -> op shards.(key mod servers))
  in
  measure_ffwd ~sched f ~threads:w.threads ~duration:w.duration ?min_ops:w.min_ops
    ~op:
      (mk_op_mix w
         ~insert:(fun key ->
           ignore (shard_call key (fun s -> if S.insert s ~key ~value:key then 1 else 0)))
         ~remove:(fun key -> ignore (shard_call key (fun s -> if S.remove s key then 1 else 0)))
         ~lookup:(fun key ->
           ignore (shard_call key (fun s -> match S.lookup s key with Some v -> v | None -> -1))))
    ()

(* --- printing and machine-readable output ---

   While an experiment runs, every table row also lands in a JSON buffer;
   [Bench_common.json_end] (called by bench/main.ml around each experiment)
   writes it to BENCH_<experiment>.json next to the text output. Records are
   flat: {"section", "series", "x", <metric>: float, ...} — one per plotted
   point, so downstream tooling re-plots figures without scraping tables. *)

let json_buf : Buffer.t option ref = ref None
let json_first = ref true
let json_section = ref ""

let json_begin () =
  json_buf := Some (Buffer.create 4096);
  json_first := true;
  json_section := ""

let json_str s = Json.to_string (Json.Str s)

(* Leak detector for the determinism contract: the JSON buffer (like all
   printing) belongs to the main domain. A point that records from inside
   the fan-out would interleave nondeterministically — fail fast instead. *)
let assert_main_domain what =
  if Par.in_worker () then
    invalid_arg
      (Printf.sprintf "Bench_common.%s: called from inside a parallel experiment point" what)

let json_record ~series ~x (fields : (string * float) list) =
  assert_main_domain "json_record";
  match !json_buf with
  | None -> ()
  | Some b ->
      if not !json_first then Buffer.add_string b ",\n";
      json_first := false;
      Buffer.add_string b
        (Printf.sprintf "  {\"section\": %s, \"series\": %s, \"x\": %s" (json_str !json_section)
           (json_str series) (json_str x));
      List.iter
        (fun (k, v) ->
          let v = if Float.is_finite v then Printf.sprintf "%.6g" v else "null" in
          Buffer.add_string b (Printf.sprintf ", %s: %s" (json_str k) v))
        fields;
      Buffer.add_char b '}'

let json_end ~name =
  match !json_buf with
  | None -> ()
  | Some b ->
      json_buf := None;
      let oc = open_out (Printf.sprintf "BENCH_%s.json" name) in
      output_string oc "[\n";
      output_string oc (Buffer.contents b);
      output_string oc "\n]\n";
      close_out oc

let print_header title =
  assert_main_domain "print_header";
  json_section := title;
  Printf.printf "\n=== %s ===\n%!" title

let print_series ~label (xs : (string * Driver.result) list) =
  List.iter
    (fun (x, r) -> json_record ~series:label ~x [ ("throughput_mops", r.Driver.throughput_mops) ])
    xs;
  Printf.printf "%-14s %s\n" label
    (String.concat "  " (List.map (fun (x, _) -> Printf.sprintf "%10s" x) xs));
  Printf.printf "%-14s %s\n%!" ""
    (String.concat "  "
       (List.map (fun (_, r) -> Printf.sprintf "%10.3f" r.Driver.throughput_mops) xs))

let print_misses ~label (xs : (string * Driver.result) list) =
  List.iter
    (fun (x, r) ->
      json_record ~series:(label ^ "/misses") ~x
        [ ("llc_misses_per_op", r.Driver.llc_misses_per_op) ])
    xs;
  Printf.printf "%-14s %s  (LLC misses/op)\n%!" (label ^ " miss")
    (String.concat "  "
       (List.map (fun (_, r) -> Printf.sprintf "%10.2f" r.Driver.llc_misses_per_op) xs))

let core_counts = if quick then [ 10; 40; 80 ] else [ 10; 20; 30; 40; 50; 60; 70; 80 ]
