(** [perf.exe compare]: parent runs against change runs, per (workload,
    end-to-end metric), with the bounds fixed in BENCHMARK.json.

    A pair is the i-th parent file with the i-th change file. A metric is
    - regressed when the change's median is worse than the parent's by
      more than the bound;
    - improved when the change wins at least 9 in 10 pairs (ties count
      for neither side) and the medians differ by more than the parent's
      interquartile range;
    - unresolved when either side's spread (interquartile range over
      median) is wider than the bound, unless every change run beats
      every parent run;
    - unchanged otherwise. *)

module Json = Dps_obs.Json

let read_json path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Json.parse s with Ok j -> j | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let field path k j =
  match Json.member k j with
  | Some v -> v
  | None -> failwith (Printf.sprintf "%s: missing %S" path k)

let num path j = match Json.to_float j with Some f -> f | None -> failwith (path ^ ": not a number")
let str path j = match Json.to_str j with Some s -> s | None -> failwith (path ^ ": not a string")

let obj path = function Json.Obj ms -> ms | _ -> failwith (path ^ ": not an object")

type bound = { name : string; lower_better : bool; bound : float }

let bounds path =
  let j = read_json path in
  List.map
    (fun m ->
      {
        name = str path (field path "name" m);
        lower_better = str path (field path "better" m) = "lower";
        bound = num path (field path "bound" m);
      })
    (Option.value ~default:[] (Json.to_list (field path "end_to_end" j)))

(* workload -> (metric -> value, attempted, failed) for one BENCH_perf.json *)
let load path =
  List.map
    (fun (wname, r) ->
      let metrics =
        List.map
          (fun (m, v) -> (m, num path (field path "value" v)))
          (obj path (field path "metrics" r))
      in
      (wname, (metrics, num path (field path "attempted" r), num path (field path "failed" r))))
    (obj path (field path "workloads" (read_json path)))

type verdict = Regressed | Improved | Unresolved | Unchanged

let verdict_name = function
  | Regressed -> "REGRESSED"
  | Improved -> "improved"
  | Unresolved -> "unresolved"
  | Unchanged -> "unchanged"

(* the i-th parent run against the i-th change run *)
let rec pairs ps cs = match (ps, cs) with p :: ps, c :: cs -> (p, c) :: pairs ps cs | _ -> []

(* the verdict, and the change's wins over the pairs *)
let judge b ~parent ~change =
  let better x y = if b.lower_better then x < y else x > y in
  let p1, mp, p3 = Quantile.quartiles parent and c1, mc, c3 = Quantile.quartiles change in
  let worse_by = (if b.lower_better then mc -. mp else mp -. mc) /. Float.abs mp in
  let ps = pairs parent change in
  let wins = List.length (List.filter (fun (p, c) -> better c p) ps) in
  let spread lo hi m = (hi -. lo) /. Float.abs m in
  let all_better = List.for_all (fun c -> List.for_all (better c) parent) change in
  let v =
    if worse_by > b.bound then Regressed
    else if 10 * wins >= 9 * List.length ps && better mc mp && Float.abs (mc -. mp) > p3 -. p1
    then Improved
    else if (spread p1 p3 mp > b.bound || spread c1 c3 mc > b.bound) && not all_better then
      Unresolved
    else Unchanged
  in
  (v, wins, List.length ps)

(** Print the comparison table; returns [true] when nothing regressed. *)
let run ~bench ~parent ~change =
  let bs = bounds bench in
  let ps = List.map load parent and cs = List.map load change in
  let workloads = match ps with [] -> [] | p :: _ -> List.map fst p in
  Printf.printf "%d parent and %d change runs; bounds from %s\n" (List.length ps)
    (List.length cs) bench;
  Printf.printf "%-15s %-13s %36s %36s %8s %6s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "delta" "wins" "verdict";
  let side xs =
    let q1, m, q3 = Quantile.quartiles xs in
    Printf.sprintf "%12.6g [%10.6g, %10.6g]" m q1 q3
  in
  let regressed = ref false in
  List.iter
    (fun w ->
      let pr = List.filter_map (List.assoc_opt w) ps in
      let cr = List.filter_map (List.assoc_opt w) cs in
      List.iter
        (fun b ->
          let values rs = List.filter_map (fun (m, _, _) -> List.assoc_opt b.name m) rs in
          let pv = values pr and cv = values cr in
          if pv <> [] && cv <> [] then begin
            let v, wins, n = judge b ~parent:pv ~change:cv in
            if v = Regressed then regressed := true;
            let mp = Quantile.median pv and mc = Quantile.median cv in
            Printf.printf "%-15s %-13s %36s %36s %+7.2f%% %3d/%-2d  %s\n" w b.name (side pv)
              (side cv)
              (100.0 *. (mc -. mp) /. Float.abs mp)
              wins n (verdict_name v)
          end)
        bs;
      let fail rs =
        let a, f = List.fold_left (fun (a, f) (_, at, fa) -> (a +. at, f +. fa)) (0.0, 0.0) rs in
        if a = 0.0 then 0.0 else f /. a
      in
      Printf.printf "%-15s failure share: parent %.6f, change %.6f\n" w (fail pr) (fail cr))
    workloads;
  not !regressed
