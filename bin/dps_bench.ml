(* dps-bench: run one set-structure benchmark point from the command line.

     dune exec bin/dps_bench.exe -- --structure lf-f --harness dps \
       --threads 80 --size 4096 --update 50 --skewed

   A front end over the figures' own harnesses (Bench_common.run_shared,
   run_dps and run_ffwd): population, key order, op mix and thread
   layout are exactly the figures', so a point printed here is the number
   the figure reports at that point. Prints throughput, LLC misses per
   operation and latency percentiles. *)

open Cmdliner
open Dps_bench_figures
module Driver = Dps_workload.Driver

module type SET = Dps_ds.Set_intf.SET

let structures : (string * (module SET)) list =
  List.map
    (fun (module S : SET) -> (S.name, (module S : SET)))
    [
      (module Dps_ds.Ll_coarse);
      (module Dps_ds.Ll_lazy);
      (module Dps_ds.Ll_michael);
      (module Dps_ds.Ll_optik);
      (module Dps_ds.Rlu_list);
      (module Dps_ds.Bst_tk);
      (module Dps_ds.Bst_ellen);
      (module Dps_ds.Bst_internal_lf);
      (module Dps_ds.Bst_bronson);
      (module Dps_ds.Sl_herlihy);
      (module Dps_ds.Sl_fraser);
      (module Dps_ds.Hashtable);
      (module Dps_ds.Btree_blink);
      (module Dps_parsec.Parsec_list);
    ]

type harness = Shared | Dps_h | Ffwd_h

(* Independent seeds fan out on the figures' runner: results print in
   seed order whatever the job count. *)
let run_bench structure harness threads size update skewed duration servers scaled seed seeds
    jobs =
  let (module S : SET) =
    match List.assoc_opt structure structures with
    | Some s -> s
    | None ->
        Printf.eprintf "unknown structure %S; pick from: %s\n" structure
          (String.concat ", " (List.map fst structures));
        exit 2
  in
  let config = if scaled then Bench_common.scaled_config else Bench_common.full_config in
  let w = Bench_common.workload ~threads ~size ~update_pct:update ~skewed ~duration () in
  let run seed =
    match harness with
    | Shared -> Bench_common.run_shared ~seed (module S) ~config w
    | Dps_h -> Bench_common.run_dps ~seed (module S) ~config w
    | Ffwd_h -> Bench_common.run_ffwd ~seed (module S) ~config ~servers w
  in
  Bench_common.set_jobs jobs;
  let seeds = List.init (max 1 seeds) (fun i -> Int64.add seed (Int64.of_int i)) in
  match Bench_common.map_points run seeds with
  | [ r ] -> Format.printf "%a@." Driver.pp_result r
  | rs -> List.iter2 (fun s r -> Format.printf "seed %Ld: %a@." s Driver.pp_result r) seeds rs

(* --- command line --- *)

let structure =
  let doc = "Structure: " ^ String.concat ", " (List.map fst structures) ^ "." in
  Arg.(value & opt string "lf-f" & info [ "structure"; "s" ] ~doc)

let harness =
  let hconv = Arg.enum [ ("shared", Shared); ("dps", Dps_h); ("ffwd", Ffwd_h) ] in
  Arg.(value & opt hconv Shared & info [ "harness" ] ~doc:"Harness: shared, dps or ffwd.")

let threads = Arg.(value & opt int 80 & info [ "threads"; "t" ] ~doc:"Simulated threads.")
let size = Arg.(value & opt int 4096 & info [ "size"; "n" ] ~doc:"Initial structure size.")
let update = Arg.(value & opt int 20 & info [ "update"; "u" ] ~doc:"Update percentage (0-100).")
let skewed = Arg.(value & flag & info [ "skewed" ] ~doc:"Zipfian keys instead of uniform.")
let duration = Arg.(value & opt int 300_000 & info [ "duration" ] ~doc:"Simulated cycles to run.")
let servers = Arg.(value & opt int 1 & info [ "servers" ] ~doc:"ffwd server count (1-4).")
let scaled = Arg.(value & flag & info [ "scaled" ] ~doc:"Use the /16-scaled cache hierarchy.")

let seed =
  Arg.(
    value & opt int64 42L
    & info [ "seed" ]
        ~doc:
          "Machine seed: seeds cache and TLB replacement only. Client key streams and the \
           initial key population are fixed, so points that never evict print the same line \
           for every seed.")

let seeds =
  Arg.(
    value & opt int 1
    & info [ "seeds" ] ~doc:"Run this many points with consecutive seeds (seed, seed+1, ...).")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "jobs"; "j" ]
        ~doc:"Worker domains for multi-seed runs; output is identical for any job count.")

let cmd =
  let doc = "run one data-structure benchmark point on the simulated NUMA machine" in
  Cmd.v
    (Cmd.info "dps-bench" ~doc)
    Term.(
      const run_bench $ structure $ harness $ threads $ size $ update $ skewed $ duration
      $ servers $ scaled $ seed $ seeds $ jobs)

let () = exit (Cmd.eval cmd)
