(** [perf.exe smoke], the benchmark's own test: every workload at 2% size,
    measured twice untraced and once traced. It fails unless every run is
    correct, the simulated metrics of the two untraced runs are identical
    (the traced run checks itself against its untraced repetitions), the
    workloads are those BENCHMARK.json names, and every metric BENCHMARK.json
    names is reported. *)

module Json = Dps_obs.Json

let names bench key =
  match Json.to_list (Compare.field bench key (Compare.read_json bench)) with
  | Some l -> List.map (fun m -> Compare.str bench (Compare.field bench "name" m)) l
  | None -> failwith (bench ^ ": " ^ key ^ " is not a list")

let simulated = [ "sim_mops"; "sim_p50_cyc"; "sim_p99_cyc" ]

let run ~bench ~(run : traced:bool -> (string * string) list) =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  let declared = names bench "workloads" in
  let known = List.map (fun w -> w.Workloads.name) Workloads.all in
  if declared <> known then
    fail "BENCHMARK.json workloads [%s] differ from the benchmark's [%s]"
      (String.concat ", " declared) (String.concat ", " known);
  let parse results = List.map (fun (w, json) -> (w, Json.parse_exn json)) results in
  let a = parse (run ~traced:false) in
  let b = parse (run ~traced:false) in
  let t = parse (run ~traced:true) in
  let metric w j m =
    match Option.bind (Json.member "metrics" j) (Json.member m) with
    | Some v -> Json.member "value" v
    | None ->
        fail "%s: metric %s not reported" w m;
        None
  in
  let check_run label runs expected =
    List.iter
      (fun (w, j) ->
        if Json.member "correct" j <> Some (Json.Bool true) then
          fail "%s run of %s incorrect" label w;
        List.iter (fun m -> ignore (metric w j m)) expected)
      runs
  in
  check_run "untraced" a (names bench "end_to_end");
  check_run "untraced" b (names bench "end_to_end");
  check_run "traced" t (names bench "per_layer");
  List.iter2
    (fun (w, ja) (_, jb) ->
      let differs m = fail "%s: %s differs between runs" w m in
      List.iter (fun m -> if metric w ja m <> metric w jb m then differs m) simulated;
      List.iter
        (fun k -> if Json.member k ja <> Json.member k jb then differs k)
        [ "attempted"; "failed" ])
    a b;
  match List.rev !failures with
  | [] -> Printf.printf "perf smoke: %d workloads, 3 runs each: ok\n" (List.length a)
  | fs ->
      List.iter (fun m -> Printf.printf "perf smoke: FAIL: %s\n" m) fs;
      exit 1
