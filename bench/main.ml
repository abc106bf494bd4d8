(** Regenerates every table and figure of the paper's evaluation (§2, §5).
    Run all experiments with [dune exec bench/main.exe], or a subset with
    e.g. [dune exec bench/main.exe -- fig6a fig13]. Set [BENCH_QUICK=1] for
    a fast smoke pass with fewer points.

    [-jN] (or [--jobs N], or the [BENCH_JOBS] env var) fans independent
    experiment points out over N OCaml domains; output is byte-identical
    to [-j1] — see DESIGN.md §9 for the determinism contract. *)

open Dps_bench_figures

let table1 () =
  Bench_common.print_header "Table 1: comparison of data-structure implementations (qualitative)";
  print_string
    "implementation | complexity | coherence | locality | parallelism\n\
     lock-based     | easy       | large     | poor     | low\n\
     non-blocking   | hard       | medium    | poor     | high\n\
     delegation     | easy       | none      | good     | low\n\
     DPS            | easy       | none      | good     | highest\n"

let experiments : (string * string * (unit -> unit)) list =
  [
    ("table1", "qualitative comparison table", table1);
    ("fig2", "shared-memory bst/skiplist motivation", Fig_sets.fig2);
    ("fig3", "delegation throughput vs op length", Fig_deleg.fig3);
    ("fig6a", "delegation throughput vs cores", Fig_deleg.fig6a);
    ("fig6b", "responsiveness vs inter-op delay", Fig_deleg.fig6b);
    ("fig7", "rw-object throughput vs cores (4 panels)", Fig_rw.fig7);
    ("fig8", "rw-object sweeps at 80 cores (+ misses)", Fig_rw.fig8);
    ("table2", "5 GB working set", Fig_rw.table2);
    ("fig9", "DPS improvement bars over 8 structures", Fig_sets.fig9);
    ("fig10", "linked-list panels", Fig_sets.fig10);
    ("fig11", "bst panels", Fig_sets.fig11);
    ("fig12", "skip-list panels", Fig_sets.fig12);
    ("fig13", "memcached panels + tail latency", Fig_mc.all);
    ("net", "memcached over the simulated network front-end", Fig_net.all);
    ("ablations", "DPS design-knob ablations", Fig_ablation.all);
    ("faults", "throughput under injected crashes/stalls", Fig_faults.all);
    ("batch", "request batching on the DPS hot path", Fig_batch.all);
    ("adapt", "adaptive delegation: drifting-skew phases + mode-flip exactly-once", Fig_adapt.all);
    ("cluster", "sharded multi-node serving with failover (stress matrix)", Fig_cluster.all);
    ("stream", "STREAM bandwidth calibration + delegation bytes A/B", Fig_stream.all);
    ("profile", "cycle attribution and observability zero-perturbation", Fig_profile.all);
  ]

(* Every experiment's table rows also land in BENCH_<name>.json. *)
let with_json name f () =
  Bench_common.json_begin ();
  Fun.protect ~finally:(fun () -> Bench_common.json_end ~name) f

let usage () =
  print_endline "usage: main.exe [-jN] [experiment ...]   (default: all)";
  List.iter (fun (n, d, _) -> Printf.printf "  %-9s %s\n" n d) experiments;
  print_endline "  -jN / --jobs N   run experiment points on N domains (default: BENCH_JOBS or 1)"

(* Extract -jN / --jobs N anywhere in the argument list; the rest are
   experiment names. *)
let parse_jobs args =
  let rec go acc = function
    | [] -> List.rev acc
    | "--jobs" :: n :: rest | "-j" :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 ->
            Bench_common.set_jobs j;
            go acc rest
        | _ ->
            Printf.printf "invalid job count %S\n" n;
            exit 1)
    | arg :: rest when String.length arg > 2 && String.sub arg 0 2 = "-j" -> (
        match int_of_string_opt (String.sub arg 2 (String.length arg - 2)) with
        | Some j when j >= 1 ->
            Bench_common.set_jobs j;
            go acc rest
        | _ ->
            Printf.printf "invalid job count %S\n" arg;
            exit 1)
    | arg :: rest -> go (arg :: acc) rest
  in
  go [] args

let run_named name =
  let _, _, f = List.find (fun (n, _, _) -> n = name) experiments in
  let t = Unix.gettimeofday () in
  with_json name f ();
  Printf.printf "[%s done in %.1fs]\n%!" name (Unix.gettimeofday () -. t)

let () =
  let args = parse_jobs (List.tl (Array.to_list Sys.argv)) in
  match args with
  | [ "--help" ] | [ "-h" ] -> usage ()
  | [] ->
      let t0 = Unix.gettimeofday () in
      List.iter (fun (name, _, _) -> run_named name) experiments;
      Printf.printf "\nAll experiments done in %.1fs\n" (Unix.gettimeofday () -. t0)
  | names ->
      (* validate the whole selection up front: one typo in a long list
         should not cost the experiments queued before it *)
      (match
         List.filter (fun n -> not (List.exists (fun (n', _, _) -> n' = n) experiments)) names
       with
      | [] -> ()
      | unknown ->
          Printf.printf "unknown experiment%s: %s\n"
            (if List.length unknown > 1 then "s" else "")
            (String.concat ", " (List.map (Printf.sprintf "%S") unknown));
          usage ();
          exit 1);
      List.iter run_named names
