module Sthread = Dps_sthread.Sthread
module Obs = Dps_obs.Obs

(* The controller's decision problem (SmartPQ's, transplanted onto DPS):
   delegation amortizes contention — it wins when a partition is hot — but
   pays protocol overhead a cool partition never earns back, where a
   plain NUMA-aware lock is cheaper. The signals below are sampled
   host-side (charging nothing), once per epoch, and diffed against the
   previous epoch; all flips go through Dps.set_mode's drain protocol. *)

type policy = {
  epoch : int;  (* cycles between controller samples *)
  warmup_epochs : int;  (* epochs observed before the first decision *)
  hot_ops : int;  (* remote ops/epoch at or above which an epoch votes hot *)
  cool_ops : int;  (* remote ops/epoch at or below which an epoch votes cool *)
  depth_hot : int;  (* ring backlog that makes an epoch hot outright *)
  lat_hot : int;  (* direct-mode issue->done latency that votes hot (lock convoy) *)
  stall_hot : float;  (* coherence-stall share that votes hot under traffic *)
  hot_epochs : int;  (* consecutive hot epochs before direct -> delegated *)
  cool_epochs : int;  (* consecutive cool epochs before delegated -> direct *)
}

let default_policy =
  {
    epoch = 4_000;
    warmup_epochs = 2;
    hot_ops = 48;
    cool_ops = 16;
    depth_hot = 12;
    lat_hot = 20_000;
    stall_hot = 0.4;
    hot_epochs = 2;
    cool_epochs = 3;
  }

(* Coherence-stall share of the direct path, read from the profiler: the
   stalled fraction of dps.direct's self cycles. 0.0 when profiling is off
   or the phase has never run — the signal degrades to neutral. *)
let stall_share () =
  if not (Obs.profiling_on ()) then 0.0
  else
    match List.find_opt (fun r -> r.Obs.phase = "dps.direct") (Obs.profile ()) with
    | Some r ->
        let denom = r.Obs.self_work + r.Obs.self_mem + r.Obs.self_stall in
        if denom = 0 then 0.0 else float_of_int r.Obs.self_stall /. float_of_int denom
    | None -> 0.0

let run ?(policy = default_policy) dps =
  let n = Dps.npartitions dps in
  let prev = Array.init n (fun pid -> Dps.signals dps ~pid) in
  let hot = Array.make n 0 in
  let cool = Array.make n 0 in
  let epochs = ref 0 in
  if Obs.tracing_on () then Obs.thread_name ~tid:(Sthread.self_id ()) "dps-adapt";
  while Dps.active dps do
    ignore (Sthread.park_for policy.epoch);
    incr epochs;
    let stall = stall_share () in
    for pid = 0 to n - 1 do
      let s = Dps.signals dps ~pid in
      let p = prev.(pid) in
      prev.(pid) <- s;
      let d_ops = s.Dps.s_remote_ops - p.Dps.s_remote_ops in
      let d_lat_cnt = s.Dps.s_lat_cnt - p.Dps.s_lat_cnt in
      let avg_lat =
        if d_lat_cnt > 0 then (s.Dps.s_lat_sum - p.Dps.s_lat_sum) / d_lat_cnt else 0
      in
      let is_hot =
        d_ops >= policy.hot_ops
        || s.Dps.s_pending >= policy.depth_hot
        (* latency votes without an op-count qualifier in direct mode: a
           lock convoy throttles throughput below cool_ops, which would
           mask exactly the signal this clause exists to catch. It still
           needs two completions — one straggler is noise, a convoy
           serializes many clients and trickles several per epoch *)
        || (s.Dps.s_mode = Dps.Direct && d_lat_cnt >= 2 && avg_lat >= policy.lat_hot)
        || (d_ops > policy.cool_ops && stall >= policy.stall_hot)
      in
      let is_cool = d_ops <= policy.cool_ops && s.Dps.s_pending < policy.depth_hot in
      if is_hot then begin
        hot.(pid) <- hot.(pid) + 1;
        cool.(pid) <- 0
      end
      else if is_cool then begin
        cool.(pid) <- cool.(pid) + 1;
        hot.(pid) <- 0
      end
      else begin
        (* between the thresholds: hysteresis holds the current mode *)
        hot.(pid) <- 0;
        cool.(pid) <- 0
      end;
      if !epochs > policy.warmup_epochs then
        match Dps.mode dps ~pid with
        | Dps.Direct when hot.(pid) >= policy.hot_epochs ->
            Dps.set_mode dps ~pid `Delegated;
            hot.(pid) <- 0
        | Dps.Delegated when cool.(pid) >= policy.cool_epochs ->
            Dps.set_mode dps ~pid `Direct;
            cool.(pid) <- 0
        | _ -> ()
    done
  done
