(* The host- and simulated-performance benchmark. Usage:

     perf.exe run [--workload W]... [W...] [--seed N] [--seconds S]
                  [--trace 0|1 | --traced] [--scale F] [--out FILE]
     perf.exe layers [--scale F]
     perf.exe compare --parent A.json... --change B.json... [--bench BENCHMARK.json]
     perf.exe smoke --bench BENCHMARK.json

   [run] measures each workload (all four by default) in its own child
   process, one after another. Each prints [<workload> <metric> <value>
   <unit>] lines and then one JSON result line; [run] collects those in
   BENCH_perf.json and exits non-zero when a correctness check fails. *)

module Json = Dps_obs.Json
module W = Workloads

let usage () =
  prerr_endline
    "usage: perf.exe run [--workload W]... [W...] [--seed N] [--seconds S] [--trace 0|1|--traced] \
     [--scale F] [--out FILE]\n\
    \       perf.exe layers [--scale F]\n\
    \       perf.exe compare --parent A.json... --change B.json... [--bench BENCHMARK.json]\n\
    \       perf.exe smoke --bench BENCHMARK.json";
  exit 2

type opts = {
  mutable workloads : string list;
  mutable seed : int;
  mutable seconds : float;
  mutable traced : bool;
  mutable scale : float;
  mutable out : string;
  mutable bench : string;
  mutable parent : string list;
  mutable change : string list;
}

let parse args =
  let o =
    {
      workloads = [];
      seed = 42;
      seconds = 10.0;
      traced = false;
      scale = 1.0;
      out = "BENCH_perf.json";
      bench = "BENCHMARK.json";
      parent = [];
      change = [];
    }
  in
  let number conv s = match conv s with Some v -> v | None -> usage () in
  (* [--parent]/[--change] take every following non-option argument *)
  let rec files acc = function
    | f :: rest when String.length f > 0 && f.[0] <> '-' -> files (f :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
        o.workloads <- o.workloads @ [ w ];
        go rest
    | "--seed" :: n :: rest ->
        o.seed <- number int_of_string_opt n;
        go rest
    | "--seconds" :: s :: rest ->
        o.seconds <- number float_of_string_opt s;
        go rest
    | "--trace" :: t :: rest ->
        o.traced <- (match t with "0" -> false | "1" -> true | _ -> usage ());
        go rest
    | "--traced" :: rest ->
        o.traced <- true;
        go rest
    | "--scale" :: f :: rest ->
        o.scale <- number float_of_string_opt f;
        go rest
    | "--out" :: f :: rest ->
        o.out <- f;
        go rest
    | "--bench" :: f :: rest ->
        o.bench <- f;
        go rest
    | "--parent" :: rest ->
        let fs, rest = files [] rest in
        o.parent <- o.parent @ fs;
        go rest
    | "--change" :: rest ->
        let fs, rest = files [] rest in
        o.change <- o.change @ fs;
        go rest
    | w :: rest when String.length w > 0 && w.[0] <> '-' ->
        o.workloads <- o.workloads @ [ w ];
        go rest
    | _ -> usage ()
  in
  go args;
  List.iter
    (fun w ->
      if W.find w = None then begin
        Printf.eprintf "unknown workload %S (known: %s)\n" w
          (String.concat ", " (List.map (fun w -> w.W.name) W.all));
        exit 2
      end)
    o.workloads;
  if o.workloads = [] then o.workloads <- List.map (fun w -> w.W.name) W.all;
  o

(* Run one workload in a child process; echo its output when [echo] and
   return its JSON result line, the last line it prints. *)
let child ~echo o w =
  let args =
    [|
      Sys.executable_name;
      "run-one";
      "--workload";
      w;
      "--seed";
      string_of_int o.seed;
      "--seconds";
      Printf.sprintf "%.17g" o.seconds;
      "--trace";
      (if o.traced then "1" else "0");
      "--scale";
      Printf.sprintf "%.17g" o.scale;
    |]
  in
  let ic = Unix.open_process_args_in Sys.executable_name args in
  let last = ref None in
  (try
     while true do
       let line = input_line ic in
       if echo then print_endline line;
       if String.length line > 0 && line.[0] = '{' then last := Some line
     done
   with End_of_file -> ());
  match (Unix.close_process_in ic, !last) with
  | Unix.WEXITED _, Some json -> (w, json)
  | _ ->
      Printf.eprintf "%s: the measuring process failed\n" w;
      exit 1

let correct json =
  match Json.parse json with
  | Ok j -> Json.member "correct" j = Some (Json.Bool true)
  | Error _ -> false

(* All workloads in sequence; results as (workload, JSON line). *)
let run_all ?(echo = true) o = List.map (child ~echo o) o.workloads

let write_bench_json o results =
  let oc = open_out o.out in
  Printf.fprintf oc
    "{\"seed\": %d, \"scale\": %.17g, \"seconds\": %.17g, \"traced\": %b, \"workloads\": {\n%s\n}}\n"
    o.seed o.scale o.seconds o.traced
    (String.concat ",\n" (List.map (fun (w, json) -> Printf.sprintf "  %S: %s" w json) results));
  close_out oc

let cmd_run o =
  let results = run_all o in
  write_bench_json o results;
  if not (List.for_all (fun (_, json) -> correct json) results) then exit 1

let cmd_run_one o =
  match o.workloads with
  | [ name ] ->
      let w = Option.get (W.find name) in
      let r = Measure.run w ~seed:o.seed ~seconds:o.seconds ~traced:o.traced ~scale:o.scale in
      print_endline (Measure.result_json r);
      if not r.Measure.correct then exit 1
  | _ -> usage ()

let cmd_layers o =
  List.iter (fun (name, ns) -> Printf.printf "%s %.1f ns\n" name ns) (Layers.run ~scale:o.scale)

let cmd_compare o =
  if o.parent = [] || o.change = [] then usage ();
  if not (Compare.run ~bench:o.bench ~parent:o.parent ~change:o.change) then exit 1

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> cmd_run (parse args)
  | _ :: "run-one" :: args -> cmd_run_one (parse args)
  | _ :: "layers" :: args -> cmd_layers (parse args)
  | _ :: "compare" :: args -> cmd_compare (parse args)
  | _ :: "smoke" :: args ->
      let o = parse args in
      Smoke.run ~bench:o.bench ~run:(fun ~traced ->
          run_all ~echo:false { o with traced; seconds = 0.0; scale = 0.02 })
  | _ -> usage ()
