(** One workload, measured in its own process.

    An untraced run repeats set-up and run until [seconds] have passed (at
    least [min_reps] times) and reports the simulated metrics, which every
    repetition must reproduce exactly, plus host times: the median set-up
    time and the lower quartile of the run times. Other load on a shared
    host only ever slows the simulator down, in bursts lasting seconds; the
    lower quartile ignores a burst unless it covers three quarters of the
    repetitions, where the median is moved by one covering half.
    A traced run alternates untraced and traced repetitions, then runs the
    per-layer microbenchmarks; it reports the per-layer metrics and fails
    unless tracing left every simulated result unchanged. *)

module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Stats = Dps_simcore.Stats
module Obs = Dps_obs.Obs
module W = Workloads

let min_reps = 3

let cyc_dps = [ "issue"; "await"; "dispatch"; "local"; "flush" ]
let cyc_srv = [ "poll"; "rx"; "parse"; "serve"; "tx" ]

let per_layer =
  [
    ("sthread.suspends", "count");
    ("sthread.suspends_access", "count");
    ("sthread.suspends_work", "count");
    ("sthread.suspends_per_op", "count/op");
    ("sthread.parks", "count");
    ("sthread.unparks", "count");
    ("machine.accesses_per_op", "count/op");
    ("machine.priv_hit_frac", "frac");
    ("machine.llc_misses_per_op", "count/op");
    ("machine.remote_misses_per_op", "count/op");
    ("machine.invalidations_per_op", "count/op");
    ("ds.op_mean_cyc", "cycles");
    ("dps.call_p50_cyc", "cycles");
    ("dps.call_p99_cyc", "cycles");
    ("dps.overhead_mean_cyc", "cycles");
    ("dps.delegated_frac", "frac");
    ("dps.takeovers", "count");
    ("dps.retries", "count");
  ]
  @ List.map (fun p -> ("cyc.dps." ^ p, "cycles/op")) cyc_dps
  @ [
      ("net.pkts_per_req", "count/op");
      ("net.dma_lines_per_req", "count/op");
      ("net.local_frac", "frac");
      ("net.backpressured", "count");
      ("srv.batches_per_req", "count/op");
      ("srv.parks_per_req", "count/op");
      ("srv.poll_entries_per_req", "count/op");
      ("srv.shed", "count");
    ]
  @ List.map (fun p -> ("cyc.srv." ^ p, "cycles/op")) cyc_srv
  @ [
      ("fc.hit_frac", "frac");
      ("fc.stale", "count");
      ("fc.invals_per_set", "count/op");
      ("fc.admits", "count");
      ("netload.timeouts_frac", "frac");
      ("netload.abandoned", "count");
      ("netload.retries", "count");
      ("netload.conns_opened", "count");
      ("cluster.p99_spread", "ratio");
    ]
  @ List.map (fun n -> (n, "ns")) Layers.names
  @ [ ("ledger.explained_frac", "frac"); ("trace.overhead_frac", "frac") ]

(* --- tracing: event counts from the scheduler hooks, cycles from the
   profiler; none of it charges a cycle --- *)

type counts = {
  mutable suspends : int;
  mutable s_access : int;
  mutable s_work : int;
  mutable parks : int;
  mutable unparks : int;
}

let install sched =
  let c = { suspends = 0; s_access = 0; s_work = 0; parks = 0; unparks = 0 } in
  Sthread.set_sched_hook sched
    (Some
       (fun ~tid:_ ~now:_ ~tag ~cycles:_ ->
         c.suspends <- c.suspends + 1;
         (match tag with
         | Sthread.Access_op _ -> c.s_access <- c.s_access + 1
         | Sthread.Work_op -> c.s_work <- c.s_work + 1
         | Sthread.Yield_op -> ());
         0));
  Sthread.set_tracer sched
    (Some
       (function
       | Sthread.T_wake _ -> c.parks <- c.parks + 1
       | Sthread.T_unpark _ -> c.unparks <- c.unparks + 1
       | _ -> ()));
  Obs.start ~tracing:false ~profiling:true ();
  c

(* What one traced repetition observed, as (name, value): the catalogue's
   counts plus the raw totals the ledger needs ([machine.accesses],
   [machine.priv_hits], [net.requests]). Read before the simulation is
   dropped. *)
let observe (inst : W.instance) (sim : W.sim) c =
  Obs.stop ();
  let profile = Obs.profile () in
  Obs.reset ();
  let per n = W.per n sim.W.completed in
  let st = Machine.stats (Sthread.machine inst.W.sched) in
  let mstat k = Stats.get st k in
  let sum f phase =
    List.fold_left
      (fun acc (r : Obs.prof_row) -> if r.Obs.phase = phase then acc + f r else acc)
      0 profile
  in
  let self (r : Obs.prof_row) =
    r.Obs.self_work + r.Obs.self_mem + r.Obs.self_stall + r.Obs.self_bwstall
  in
  [
    ("sthread.suspends", float_of_int c.suspends);
    ("sthread.suspends_access", float_of_int c.s_access);
    ("sthread.suspends_work", float_of_int c.s_work);
    ("sthread.suspends_per_op", per c.suspends);
    ("sthread.parks", float_of_int c.parks);
    ("sthread.unparks", float_of_int c.unparks);
    ("machine.accesses", float_of_int (mstat "accesses"));
    ("machine.priv_hits", float_of_int (mstat "priv_hits"));
    ("machine.accesses_per_op", per (mstat "accesses"));
    ("machine.priv_hit_frac", W.per (mstat "priv_hits") (mstat "accesses"));
    ("machine.llc_misses_per_op", per (mstat "llc_misses"));
    ("machine.remote_misses_per_op", per (mstat "remote_misses"));
    ("machine.invalidations_per_op", per (mstat "invalidations"));
    ("srv.poll_entries_per_req", per (sum (fun r -> r.Obs.entries) "srv.poll"));
  ]
  @ List.map (fun p -> ("cyc.dps." ^ p, per (sum self ("dps." ^ p)))) cyc_dps
  @ List.map (fun p -> ("cyc.srv." ^ p, per (sum self ("srv." ^ p)))) cyc_srv
  @ inst.W.layers sim

type rep = {
  setup_s : float;
  run_s : float;
  sim : W.sim;
  errors : string list;
  observed : (string * float) list;  (** traced repetitions only *)
}

let rep (w : W.t) ~seed ~scale ~traced =
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let inst = w.W.setup ~seed ~scale in
  let setup_s = Unix.gettimeofday () -. t0 in
  let counts = if traced then Some (install inst.W.sched) else None in
  let t1 = Unix.gettimeofday () in
  let sim = inst.W.run ~traced in
  let run_s = Unix.gettimeofday () -. t1 in
  let observed = match counts with Some c -> observe inst sim c | None -> [] in
  { setup_s; run_s; sim; errors = inst.W.check (); observed }

(* --- output --- *)

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (** name, value, unit *)
}

let result_json r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (num v) unit)
          r.metrics))

(* The traced run's per-layer metrics: the last traced repetition's
   observations, the microbenchmarks, and the ledger built from both. *)
let layer_metrics observed ~untraced_s ~traced_s ~scale =
  let get k = Option.value (List.assoc_opt k observed) ~default:0.0 in
  let micro = Layers.run ~scale in
  let ns k = List.assoc k micro in
  (* counted events times each layer's calibrated cost, as a share of the
     measured run. A private-cache hit costs what a hitting read costs
     beyond its suspension; any other access costs what the miss-heavy
     access loop measures. A request is encoded and parsed twice (request,
     reply). *)
  let hits = get "machine.priv_hits" in
  let explained_s =
    1e-9
    *. ((get "sthread.suspends" *. ns "sthread.suspend_ns")
       +. (hits *. Float.max 0.0 (ns "sthread.read_hit_ns" -. ns "sthread.suspend_ns"))
       +. ((get "machine.accesses" -. hits) *. ns "machine.access_ns")
       +. (2.0 *. get "net.requests" *. ns "net.wire_ns"))
  in
  let computed =
    micro
    @ [
        ("ledger.explained_frac", explained_s /. untraced_s);
        ("trace.overhead_frac", (traced_s /. untraced_s) -. 1.0);
      ]
  in
  List.map
    (fun (name, unit) ->
      (name, Option.value (List.assoc_opt name computed) ~default:(get name), unit))
    per_layer

(** Measure workload [w]; prints one [<workload> <metric> <value> <unit>]
    line per metric and returns the result. *)
let run (w : W.t) ~seed ~seconds ~traced ~scale =
  let start = Unix.gettimeofday () in
  let first = rep w ~seed ~scale ~traced:false in
  (* every repetition allocates alike, so the heap's high-water mark after
     the first is the run's, without the drift of later GC timing *)
  let peak_heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let plain = ref [ first ] and traced_reps = ref [] in
  if traced then traced_reps := [ rep w ~seed ~scale ~traced:true ];
  while List.length !plain < min_reps || Unix.gettimeofday () -. start < seconds do
    plain := rep w ~seed ~scale ~traced:false :: !plain;
    if traced then traced_reps := rep w ~seed ~scale ~traced:true :: !traced_reps
  done;
  let all = !plain @ !traced_reps in
  let errors =
    List.concat_map (fun r -> r.errors) all
    @
    if List.for_all (fun r -> r.sim = first.sim) all then []
    else
      [
        (if traced then "simulated results differ across repetitions or with tracing on"
         else "simulated results differ across repetitions");
      ]
  in
  List.iter (fun e -> Printf.eprintf "%s: CHECK FAILED: %s\n%!" w.W.name e) errors;
  let run_time reps = Quantile.lower_quartile (List.map (fun r -> r.run_s) reps) in
  let untraced_s = run_time !plain in
  let metrics =
    if traced then
      layer_metrics (List.hd !traced_reps).observed ~untraced_s ~traced_s:(run_time !traced_reps)
        ~scale
    else
      let s = first.sim in
      [
        ("sim_mops", s.W.mops, "Mops/s");
        ("sim_p50_cyc", float_of_int s.W.p50, "cycles");
        ("sim_p99_cyc", float_of_int s.W.p99, "cycles");
        ("run_s", untraced_s, "s");
        ("setup_s", Quantile.median (List.map (fun r -> r.setup_s) !plain), "s");
        ("peak_heap_mb", peak_heap_mb, "MB");
      ]
  in
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s %s %s %s\n" w.W.name name (num v) unit)
    metrics;
  {
    correct = errors = [];
    attempted = first.sim.W.issued;
    failed = first.sim.W.failed;
    metrics;
  }
