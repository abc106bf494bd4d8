(** Data-structure figures: Figure 2 (shared-memory motivation), Figure 9
    (DPS improvement bars at 80 cores) and Figures 10–12 (linked list, BST
    and skip list sweeps). Working-set sizes above the cache knee run on
    the /16-scaled machine with sizes scaled identically, so the knee sits
    at the same relative x position (see EXPERIMENTS.md). *)

open Bench_common
module Driver = Dps_workload.Driver

module type SET = Dps_ds.Set_intf.SET

(* Sizes quoted from the paper, divided by the machine scale factor. *)
let scaled n = max 128 (n / Machine.scale_factor)

let lists : (module SET) list =
  [
    (module Dps_ds.Ll_michael);
    (module Dps_ds.Ll_lazy);
    (module Dps_ds.Ll_optik);
    (module Dps_ds.Rlu_list);
  ]

let bsts : (module SET) list =
  [ (module Dps_ds.Bst_bronson); (module Dps_ds.Bst_ellen); (module Dps_ds.Bst_tk) ]

let sls : (module SET) list = [ (module Dps_ds.Sl_herlihy); (module Dps_ds.Sl_fraser) ]

(* --- Figure 2 --- *)

let fig2 () =
  print_header "Figure 2 (left): shared bst & skiplist vs update ratio (4K nodes, skewed, 80c)";
  let ratios = if quick then [ 0; 50; 100 ] else [ 0; 20; 40; 60; 80; 100 ] in
  let impls : (module SET) list =
    [
      (module Dps_ds.Bst_tk);
      (module Dps_ds.Bst_ellen);
      (module Dps_ds.Sl_herlihy);
      (module Dps_ds.Sl_fraser);
    ]
  in
  Printf.printf "x = update ratio (%%)\n";
  List.iter
    (fun (label, pts) ->
      print_series ~label pts;
      print_misses ~label pts)
    (run_series
       (List.map
          (fun (module S : SET) ->
            ( S.name,
              List.map
                (fun u ->
                  ( string_of_int u,
                    fun () ->
                      run_shared (module S) ~config:full_config
                        (workload ~threads:80 ~size:4096 ~update_pct:u ~skewed:true ()) ))
                ratios ))
          impls));
  print_header "Figure 2 (right): shared bst & skiplist vs size (5% update, uniform, 80c)";
  let sizes = if quick then [ 8192; 262144 ] else [ 8192; 32768; 131072; 524288 ] in
  Printf.printf "x = nodes (scaled machine; aggregate-LLC knee near %d lines)\n"
    (4 * scaled_config.Dps_machine.Machine.llc_lines);
  List.iter
    (fun (label, pts) ->
      print_series ~label pts;
      print_misses ~label pts)
    (run_series
       (List.map
          (fun (module S : SET) ->
            ( S.name,
              List.map
                (fun size ->
                  ( string_of_int size,
                    fun () ->
                      run_shared (module S) ~config:scaled_config
                        (workload ~threads:80 ~size ~update_pct:5 ~skewed:false ()) ))
                sizes ))
          impls))

(* --- Figure 9 --- *)

let fig9_structures : (string * (module SET)) list =
  [
    ("ll/gl-m", (module Dps_ds.Ll_coarse));
    ("ll/lb-l", (module Dps_ds.Ll_lazy));
    ("ll/lf-m", (module Dps_ds.Ll_michael));
    ("bst/lb-b", (module Dps_ds.Bst_bronson));
    ("bst/lf-n", (module Dps_ds.Bst_ellen));
    ("bst/lf-h", (module Dps_ds.Bst_internal_lf));
    ("sl/lb-h", (module Dps_ds.Sl_herlihy));
    ("sl/lf-f", (module Dps_ds.Sl_fraser));
  ]

let fig9_panel ~title w_of =
  print_header title;
  Printf.printf "%-10s %12s %12s %8s\n" "structure" "orig Mops/s" "DPS Mops/s" "speedup";
  (* one thunk per (structure, harness) pair, merged back per structure *)
  let rows =
    map_points
      (fun ((module S : SET), config, w, harness) ->
        match harness with
        | `Orig -> run_shared (module S) ~config w
        | `Dps -> run_dps (module S) ~config w)
      (List.concat_map
         (fun (label, (module S : SET)) ->
           let family = List.hd (String.split_on_char '/' label) in
           let w : workload = w_of family in
           let config = if w.size > 16384 then scaled_config else full_config in
           [ ((module S : SET), config, w, `Orig); ((module S : SET), config, w, `Dps) ])
         fig9_structures)
  in
  let rec print2 labels = function
    | orig :: dps :: rest ->
        let label = List.hd labels in
        json_record ~series:(label ^ "/orig") ~x:"80"
          [ ("throughput_mops", orig.Driver.throughput_mops) ];
        json_record ~series:(label ^ "/DPS") ~x:"80"
          [ ("throughput_mops", dps.Driver.throughput_mops) ];
        Printf.printf "%-10s %12.3f %12.3f %7.1fx\n%!" label orig.Driver.throughput_mops
          dps.Driver.throughput_mops
          (dps.Driver.throughput_mops /. max 1e-9 orig.Driver.throughput_mops);
        print2 (List.tl labels) rest
    | _ -> ()
  in
  print2 (List.map fst fig9_structures) rows

let fig9 () =
  fig9_panel ~title:"Figure 9(a): skewed, 4K nodes, 50% update, 80 cores (lists scaled to 1K)"
    (fun family ->
      let size = if family = "ll" then 1024 else 4096 in
      workload ~threads:80 ~size ~update_pct:50 ~skewed:true ());
  fig9_panel
    ~title:"Figure 9(b): uniform, 32K (lists) / 2M-scaled (trees) nodes, 5% update, 80 cores"
    (fun family ->
      (* trees/skiplists: scale the paper's 2M down by 4 (not 16) so the
         working set sits as far past the scaled cache knee as the paper's
         sits past the real one *)
      let size = if family = "ll" then scaled 32768 else 524288 in
      workload ~threads:80 ~size ~update_pct:5 ~skewed:false
        ?min_ops:(if family = "ll" then Some 2 else None)
        ())

(* --- Figures 10-12: four standard panels per structure family --- *)

let four_panels ~figure ~family ~impls ~small_size ~big_size ~size_sweep () =
  (* panel a: cores sweep, high contention *)
  print_header
    (Printf.sprintf "Figure %s(a): %s, skewed %d nodes, 50%% update, vs cores" figure family
       small_size);
  (* DPS's per-partition structures, as in the paper: the ParSec list for
     linked lists (§5.2), BST-TK for trees, the lazy skip list. *)
  let dps_internal : (module SET) =
    match family with
    | "linked list" -> (module Dps_parsec.Parsec_list)
    | "bst" -> (module Dps_ds.Bst_tk)
    | _ -> (module Dps_ds.Sl_herlihy)
  in
  let ffwd_servers = if family = "bst" then 4 else 1 in
  let sweep_panel ~config ~xs w_of =
    (* every series of the panel (impls + ffwd + DPS) in one fan-out *)
    let mk label runner = (label, List.map (fun x -> (string_of_int x, fun () -> runner x)) xs) in
    List.iter
      (fun (label, pts) -> print_series ~label pts)
      (run_series
         (List.map
            (fun (module S : SET) ->
              mk S.name (fun x -> run_shared (module S) ~config (w_of x)))
            impls
         @ [
             mk "ffwd" (fun x -> run_ffwd dps_internal ~config ~servers:ffwd_servers (w_of x));
             mk "DPS" (fun x -> run_dps dps_internal ~config (w_of x));
           ]))
  in
  let cores_panel ~config w_of = sweep_panel ~config ~xs:core_counts w_of in
  cores_panel ~config:full_config (fun n ->
      workload ~threads:n ~size:small_size ~update_pct:50 ~skewed:true ());
  (* panel b: cores sweep, large working set *)
  print_header
    (Printf.sprintf "Figure %s(b): %s, uniform %d nodes, 5%% update, vs cores" figure family
       big_size);
  cores_panel ~config:scaled_config (fun n ->
      workload ~threads:n ~size:big_size ~update_pct:5 ~skewed:false
        ?min_ops:(if family = "linked list" then Some 2 else None)
        ());
  (* panel c: update-ratio sweep at 80 cores *)
  print_header
    (Printf.sprintf "Figure %s(c): %s, skewed %d nodes, vs update ratio (80c)" figure family
       small_size);
  let ratios = if quick then [ 0; 50; 100 ] else [ 0; 20; 40; 60; 80; 100 ] in
  sweep_panel ~config:full_config ~xs:ratios (fun u ->
      workload ~threads:80 ~size:small_size ~update_pct:u ~skewed:true ());
  (* panel d: size sweep at 80 cores *)
  print_header (Printf.sprintf "Figure %s(d): %s, uniform 5%% update, vs size (80c)" figure family);
  sweep_panel ~config:scaled_config ~xs:size_sweep (fun size ->
      workload ~threads:80 ~size ~update_pct:5 ~skewed:false
        ?min_ops:(if family = "linked list" then Some 2 else None)
        ~duration:(if family = "linked list" then 150_000 else default_duration)
        ())

let fig10 () =
  four_panels ~figure:"10" ~family:"linked list" ~impls:lists ~small_size:1024
    ~big_size:(scaled 32768)
    ~size_sweep:(if quick then [ 128; 2048 ] else [ 128; 512; 2048; 8192; 32768 ]) ()

let fig11 () =
  four_panels ~figure:"11" ~family:"bst" ~impls:bsts ~small_size:4096 ~big_size:524288
    ~size_sweep:(if quick then [ 2048; 131072 ] else [ 2048; 16384; 131072; 524288 ]) ()

let fig12 () =
  four_panels ~figure:"12" ~family:"skip list" ~impls:sls ~small_size:4096 ~big_size:524288
    ~size_sweep:(if quick then [ 2048; 131072 ] else [ 2048; 16384; 131072; 524288 ]) ()

let all () =
  fig2 ();
  fig9 ();
  fig10 ();
  fig11 ();
  fig12 ()
