(** Adaptive-delegation figure: the per-partition mode controller under
    drifting skew.

    Not from the paper — the paper freezes the delegation-vs-direct trade
    at create time. These experiments measure what {!Dps_adapt.Adapt}'s
    runtime controller buys over either static choice, and that the
    online transition protocol keeps the delegation guarantees:

    - (a) a phased workload alternating hot (90% of traffic on one
      drifting partition, no think time — delegation's home turf) and
      cool (uniform keys with think time — a plain lock's home turf)
      epochs. Gate: the adaptive run's throughput tracks the better
      static variant within 10% at every phase.
    - (b) exactly-once accounting across mode flips on a self-healing
      instance, with a dedicated poller killed mid-transition (while the
      controller drains the flipping partition's rings). Gate: every
      acked increment applied exactly once, and both flip directions
      actually exercised. *)

open Bench_common
module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Prng = Dps_simcore.Prng
module Driver = Dps_workload.Driver
module Adapt = Dps_adapt.Adapt
module Faults = Dps_faults

let threads = 80
let locality_size = 10
let op_len = 80
let think = 4_000
let hot_pct = 90
let nphases = 6

(* asymmetric phases: short hot bursts (every client active, 90% of the
   traffic flooding one partition) separated by long sparse periods (one
   client in five issuing, the rest on event-loop duty) — the burst is
   delegation's regime, the lull is where a lock's lower protocol cost
   can show *)
let hot_len = if quick then 30_000 else 60_000
let cool_len = 2 * hot_len
let period = hot_len + cool_len
let duration = nphases / 2 * period
let phase_of_time t = (t / period * 2) + if t mod period < hot_len then 0 else 1
let phase_cycles ph = if ph land 1 = 0 then hot_len else cool_len

(* even phases are hot, odd phases cool; the hot partition drifts across
   sockets from one hot phase to the next *)
let hot_pid ~nparts ph = ph / 2 * 3 mod nparts

(* reaction tuned to the figure's phase length: decide every 800 cycles,
   flip to delegation after one hot epoch (the onset signal in direct
   mode is the issue-rate spike — every flooder bumps the partition's
   remote-op counter before it ever touches the lock), back after three
   cool ones *)
let fast_policy =
  {
    Adapt.default_policy with
    Adapt.epoch = 600;
    warmup_epochs = 1;
    hot_ops = 8;
    cool_ops = 3;
    depth_hot = 10;
    lat_hot = 8_000;
    hot_epochs = 1;
    cool_epochs = 4;
  }

type run = {
  label : string;
  agg : Driver.result;
  phase_mops : float array;
  to_direct : int;
  to_delegated : int;
  paths : int * int * int;  (* local, delegated, direct op counts *)
}

(* [adaptive] is the starting mode of an adaptive instance; without it,
   the static delegated runtime *)
let mk_dps ?adaptive sched =
  Dps.create sched ~nclients:threads ~locality_size
    ~serving:(if adaptive = None then Dps.Owner else Dps.Shared { heal_after = None; adaptive })
    ~hash:(fun k -> k)
    ~mk_data:(fun (info : Dps.partition_info) -> Alloc.line info.Dps.alloc)
    ()

let run_one ~label ~mk =
  let m = Machine.create full_config in
  let sched = Sthread.create m in
  let dps = mk sched in
  let nparts = Dps.npartitions dps in
  let ops = Array.make nphases 0 in
  let op ~tid ~step:_ =
    let p = Sthread.self_prng () in
    let ph = min (phase_of_time (Sthread.time ())) (nphases - 1) in
    let hot = ph land 1 = 0 in
    if (not hot) && tid mod 5 <> 0 then begin
      (* cool phases idle four clients in five: they keep their event-loop
         duty (drain their own partition's rings) but issue nothing *)
      Sthread.work 400;
      ignore (Dps.serve dps ~max:4)
    end
    else begin
      let hp = hot_pid ~nparts ph in
      (* the hot partition's own locality stays on uniform traffic: the
         hotspot is a remote flood, the regime where the delegated-vs-direct
         choice actually matters (local ops never cross a mode) *)
      let key =
        if hot && tid / locality_size <> hp && Prng.int p 100 < hot_pct then
          hp + (nparts * Prng.int p 64)
        else Prng.int p (64 * nparts)
      in
      ignore
        (Dps.call dps ~key (fun addr ->
             Sthread.rmw addr;
             Sthread.work op_len;
             0));
      (* attribute the op to the phase that retired it: a backlogged mode
         drags its unfinished ops into the next phase's ledger, which is
         exactly the cost the figure should show *)
      ops.(min (phase_of_time (Sthread.time ())) (nphases - 1)) <-
        ops.(min (phase_of_time (Sthread.time ())) (nphases - 1)) + 1;
      (* event-loop duty: clients double as servers (§4.1). An op that ran
         synchronously through a direct-mode lock never waited, so unlike
         the delegated path it served nothing on the way — without this
         drain an all-direct client would starve its share of the home
         partition's rings *)
      while Dps.serve dps ~max:8 > 0 do
        ()
      done;
      (* jittered think decorrelates the issue times — a fixed quantum
         synchronizes every client into burst arrivals at the locks *)
      if hot then Sthread.work (1_000 + Prng.int p 1_000)
      else Sthread.work (think - 1_000 + Prng.int p 2_000)
    end
  in
  let agg = measure_dps ~sched dps ~threads ~duration ~op () in
  let to_direct, to_delegated = Dps.mode_flips dps in
  {
    label;
    agg;
    phase_mops =
      Array.mapi
        (fun ph n ->
          float_of_int n /. Machine.cycles_to_seconds m (phase_cycles ph) /. 1e6)
        ops;
    to_direct;
    to_delegated;
    paths = (Dps.local_ops dps, Dps.delegated_ops dps, Dps.direct_ops dps);
  }

let mk_adaptive sched =
  let dps = mk_dps ~adaptive:`Delegated sched in
  let topo = Machine.topology (Sthread.machine sched) in
  (* the controller shares the last hardware thread with its client; it
     parks through most of each epoch *)
  Sthread.spawn sched
    ~hw:(Topology.nthreads topo - 1)
    (fun () -> Adapt.run ~policy:fast_policy dps);
  dps

let fig_drift () =
  print_header
    (Printf.sprintf
       "Adaptive (a): drifting skew, %d phases (hot %d / cool %d cycles, %d threads; hot = \
        %d%%/1 partition, cool = 1-in-5 clients uniform + %d-cycle think)"
       nphases hot_len cool_len threads hot_pct think);
  let runs =
    map_points
      (fun (label, mk) -> run_one ~label ~mk)
      [
        ("delegated", fun sched -> mk_dps sched);
        ("direct-cna", fun sched -> mk_dps ~adaptive:`Direct sched);
        ("adaptive", mk_adaptive);
      ]
  in
  List.iter
    (fun r ->
      let local, delegated, direct = r.paths in
      Printf.printf "%-12s paths: local=%d delegated=%d direct=%d\n%!" r.label local delegated
        direct)
    runs;
  List.iter
    (fun r ->
      Array.iteri
        (fun ph mops -> json_record ~series:r.label ~x:(string_of_int ph) [ ("mops", mops) ])
        r.phase_mops;
      json_record ~series:r.label ~x:"all"
        [
          ("throughput_mops", r.agg.Driver.throughput_mops);
          ("p50", float_of_int r.agg.Driver.p50);
          ("p99", float_of_int r.agg.Driver.p99);
          ("to_direct", float_of_int r.to_direct);
          ("to_delegated", float_of_int r.to_delegated);
        ])
    runs;
  Printf.printf "%-12s %s %10s\n" "phase"
    (String.concat "  "
       (List.init nphases (fun ph ->
            Printf.sprintf "%9s"
              (if ph land 1 = 0 then Printf.sprintf "hot[p%d]" (hot_pid ~nparts:8 ph)
               else "cool"))))
    "overall";
  List.iter
    (fun r ->
      Printf.printf "%-12s %s %10.3f  (Mops/s)\n" r.label
        (String.concat "  "
           (Array.to_list (Array.map (fun m -> Printf.sprintf "%9.3f" m) r.phase_mops)))
        r.agg.Driver.throughput_mops)
    runs;
  let find l = List.find (fun r -> r.label = l) runs in
  let deleg = find "delegated" and direct = find "direct-cna" and adapt = find "adaptive" in
  Printf.printf "%-12s to_direct=%d to_delegated=%d\n%!" "flips" adapt.to_direct
    adapt.to_delegated;
  let failures = ref [] in
  for ph = 0 to nphases - 1 do
    let best = Float.max deleg.phase_mops.(ph) direct.phase_mops.(ph) in
    if adapt.phase_mops.(ph) < 0.9 *. best then
      failures :=
        Printf.sprintf "phase %d: adaptive %.3f < 90%% of best static %.3f" ph
          adapt.phase_mops.(ph) best
        :: !failures
  done;
  if adapt.to_direct = 0 || adapt.to_delegated = 0 then
    failures :=
      Printf.sprintf "controller never flipped both ways (to_direct=%d to_delegated=%d)"
        adapt.to_direct adapt.to_delegated
      :: !failures;
  List.rev !failures

(* (b): counter increments under a flip storm; partition 0's dedicated
   poller is killed while the controller is draining partition 0's rings
   for its first delegated -> direct transition. *)
let fig_flip_kill () =
  print_header
    "Adaptive (b): exactly-once across mode flips, poller killed mid-transition (16 clients, \
     self-healing)";
  let m = Machine.create full_config in
  let sched = Sthread.create m in
  let nclients = 16 in
  let dps =
    Dps.create sched ~nclients ~locality_size:4
      ~serving:(Dps.Shared { heal_after = Some 20_000; adaptive = Some `Delegated })
      ~hash:(fun k -> k)
      ~mk_data:(fun (_ : Dps.partition_info) -> Array.make nclients 0)
      ()
  in
  let nparts = Dps.npartitions dps in
  let per = if quick then 150 else 500 in
  let acked = Array.make nclients 0 in
  (* clients first so sthread tid = client id for the fault plan *)
  for c = 0 to nclients - 1 do
    Sthread.spawn sched ~hw:(Dps.client_hw dps c) (fun () ->
        Dps.attach dps ~client:c;
        for i = 1 to per do
          ignore
            (Dps.call dps
               ~key:((c + i) mod (8 * nparts))
               (fun d ->
                 d.(c) <- d.(c) + 1;
                 d.(c)));
          acked.(c) <- acked.(c) + 1;
          Sthread.work 200
        done;
        Dps.client_done dps;
        Dps.drain dps)
  done;
  let topo = Machine.topology m in
  let nhw = Topology.nthreads topo in
  let poller_tid = nclients in
  Sthread.spawn sched ~hw:(nhw - 2) (fun () -> Dps.run_poller dps ~pid:0);
  let flip_period = 4_000 in
  Sthread.spawn sched ~hw:(nhw - 1) (fun () ->
      (* the figure's single set_mode writer: walk the partitions, flipping
         one every period, each back again on its next visit *)
      let i = ref 0 in
      while Dps.active dps do
        ignore (Sthread.park_for flip_period);
        if Dps.active dps then begin
          let pid = !i mod nparts in
          (match Dps.mode dps ~pid with
          | Dps.Direct -> Dps.set_mode dps ~pid `Delegated
          | Dps.Delegated | Dps.Draining -> Dps.set_mode dps ~pid `Direct);
          incr i
        end
      done);
  (* partition 0 flips delegated -> direct just after t = flip_period; kill
     its poller inside that drain window *)
  let plan = Faults.install sched ~seed:7L (Faults.spec ()) in
  Faults.schedule_crash plan ~tid:poller_tid ~at:(flip_period + 60);
  Sthread.run sched;
  let h = Dps.health dps in
  let to_direct, to_delegated = Dps.mode_flips dps in
  let sent = Array.fold_left ( + ) 0 acked in
  let applied = ref 0 in
  let failures = ref [] in
  for c = 0 to nclients - 1 do
    let a = ref 0 in
    for pid = 0 to nparts - 1 do
      a := !a + (Dps.partition_data dps pid).(c)
    done;
    applied := !applied + !a;
    if !a <> acked.(c) then
      failures := Printf.sprintf "client %d: %d acked but %d applied" c acked.(c) !a :: !failures
  done;
  if to_direct = 0 || to_delegated = 0 then
    failures :=
      Printf.sprintf "flip storm too tame (to_direct=%d to_delegated=%d)" to_direct to_delegated
      :: !failures;
  json_record ~series:"flip-kill" ~x:"eo"
    [
      ("sent", float_of_int sent);
      ("applied", float_of_int !applied);
      ("to_direct", float_of_int to_direct);
      ("to_delegated", float_of_int to_delegated);
      ("direct_ops", float_of_int (Dps.direct_ops dps));
    ];
  Printf.printf
    "sent %d applied %d  flips to_direct=%d to_delegated=%d  direct_ops=%d\n" sent !applied
    to_direct to_delegated (Dps.direct_ops dps);
  Printf.printf
    "heal: crashes=%d takeovers=%d retries=%d lock_breaks=%d\n%!" h.Dps.crashes h.Dps.takeovers
    h.Dps.retries h.Dps.lock_breaks;
  List.rev !failures

let all () =
  let failures = fig_drift () @ fig_flip_kill () in
  if failures = [] then Printf.printf "ADAPT: ALL GATES PASS\n%!"
  else begin
    List.iter (fun msg -> Printf.printf "GATE: %s\n" msg) failures;
    Printf.printf "ADAPT: %d GATE(S) FAILED\n%!" (List.length failures)
  end
