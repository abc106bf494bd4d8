(** Profiler figure: cycle attribution on the delegation hot path, and the
    observability layer's zero-perturbation guarantee.

    One DPS run of the Figure 6(a) microbenchmark (80 threads, 500-cycle
    operations) is repeated three times from the same seed: observability
    off, profiling on, tracing+profiling on. The profiled runs print the
    flamegraph-style phase table (spin in await, dispatch, coherence
    stalls, parking) and land its rows in BENCH_profile.json; the run
    triple must produce bit-identical simulation results — the same
    invariant test/test_obs.ml enforces — and the verdict lands in the
    JSON too, so the CI regression gate re-checks it on every push.

    Deliberately sequential: the experiment toggles the global {!Obs}
    tracer/profiler state, which the parallel runner cannot isolate per
    domain (Bench_common.run_all falls back to one job whenever Obs is
    on for the same reason). *)

open Bench_common
module Driver = Dps_workload.Driver
module Obs = Dps_obs.Obs

let run ~threads ~op_len ~duration =
  Fig_deleg.run ~mode:Fig_deleg.Dps_sync ~threads ~op_len ~delay:0 ~duration ()

let all () =
  print_header "Profile: cycle attribution on the delegation hot path";
  let threads = if quick then 40 else 80 in
  let duration = default_duration in
  let op_len = 500 in
  (* baseline: observability fully off *)
  Obs.stop ();
  Obs.reset ();
  let r_off = run ~threads ~op_len ~duration in
  (* profiling only *)
  Obs.start ~tracing:false ~profiling:true ();
  let r_prof = run ~threads ~op_len ~duration in
  Obs.stop ();
  let rows = Obs.profile () in
  let profile_table = Format.asprintf "%a" Obs.pp_profile () in
  (* tracing + profiling *)
  Obs.start ~tracing:true ~profiling:true ();
  let r_trace = run ~threads ~op_len ~duration in
  Obs.stop ();
  let events = Obs.event_count () in
  Obs.reset ();
  Printf.printf "%d threads, %d-cycle operations, %.3f Mops/s\n\n" threads op_len
    r_prof.Driver.throughput_mops;
  List.iter
    (fun (p : Obs.prof_row) ->
      json_record ~series:("phase/" ^ p.phase) ~x:(string_of_int threads)
        [
          ("self_work", float_of_int p.self_work);
          ("self_mem", float_of_int p.self_mem);
          ("self_stall", float_of_int p.self_stall);
          ("self_park", float_of_int p.self_park);
          ("total", float_of_int p.total);
        ])
    rows;
  print_string profile_table;
  print_newline ();
  let identical = r_off = r_prof && r_off = r_trace in
  json_record ~series:"identity" ~x:"off-vs-on"
    [
      ("identical", if identical then 1.0 else 0.0);
      ("throughput_mops", r_off.Driver.throughput_mops);
    ];
  if identical then
    Printf.printf
      "zero perturbation: off / profiled / traced runs bit-identical (%d ops, %d trace events)\n"
      r_off.Driver.ops events
  else
    Printf.printf "PERTURBED: off %.6f, profiled %.6f, traced %.6f Mops/s\n"
      r_off.Driver.throughput_mops r_prof.Driver.throughput_mops r_trace.Driver.throughput_mops
