(** The cluster figure: sharded multi-node serving with failover, driven
    by a declarative stress-scenario matrix. Each scenario is a data
    record — fleet shape, key pattern, fault plan — plus a set of gates
    (p99 bound, goodput floor, exactly-once, kill-recovery). The matrix
    covers the failure modes the cluster layer exists for: incast onto one
    shard, all-to-all fan-out, a whole-node kill mid-run, a connection
    churn storm and hot-key skew. Every stage checks the exactly-once
    ledger ({!Dps_check.Eo}): no acked set may be lost or double-applied
    by the retry/failover machinery. *)

open Bench_common
module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Netload = Dps_workload.Netload
module Cluster = Dps_cluster.Cluster
module Ring = Dps_cluster.Ring
module Eo = Dps_check.Eo
module Server = Dps_server.Server
module Frontcache = Dps_server.Frontcache
module Net = Dps_net.Net

let items = if quick then 4096 else 16384

(* --- the scenario matrix, as data --- *)

type gates = {
  g_max_p99 : int;  (* cycles; 0 = ungated *)
  g_min_goodput : float;  (* Mops/s; 0 = ungated *)
  g_exactly_once : bool;  (* no lost-acked / double-applied ops *)
  g_recovery_pct : float;  (* post-kill goodput floor vs pre-kill; 0 = ungated *)
  g_reroute_cycles : int;  (* kill -> declared-dead bound; 0 = ungated *)
  g_max_spread : float;  (* hot-shard p99 / median node p99 bound; 0 = ungated *)
  g_min_conns : int;  (* floor on connections actually dialed; 0 = ungated *)
}

let gates ?(max_p99 = 0) ?(min_goodput = 0.0) ?(exactly_once = true)
    ?(recovery_pct = 0.0) ?(reroute_cycles = 0) ?(max_spread = 0.0) ?(min_conns = 0) () =
  {
    g_max_p99 = max_p99;
    g_min_goodput = min_goodput;
    g_exactly_once = exactly_once;
    g_recovery_pct = recovery_pct;
    g_reroute_cycles = reroute_cycles;
    g_max_spread = max_spread;
    g_min_conns = min_conns;
  }

type scenario = {
  sname : string;
  sdesc : string;
  nnodes : int;
  nclients : int;
  nconns : int;  (* per node *)
  set_pct : int;
  zipfian : bool;  (* hot-key skew (Zipf theta 0.99) vs uniform *)
  incast : bool;  (* restrict keys to node 0's shard *)
  kill_frac : float;  (* kill node 1 at this fraction of the run; 0 = none *)
  churn : int;  (* churn interval, cycles; 0 = none *)
  sthink : int;  (* closed-loop think override; 0 = the 4000-cycle default *)
  tune : Cluster.config -> Cluster.config;
      (* pollers, server and net overrides on top of the matrix's cluster *)
  s_items : int;  (* keyspace override; 0 = matrix default *)
  sduration : int;
  sgates : gates;
}

let scen ?(nnodes = 4) ?(nclients = 512) ?(nconns = 16) ?(set_pct = 10)
    ?(zipfian = false) ?(incast = false) ?(kill_frac = 0.0) ?(churn = 0)
    ?(think = 0) ?(tune = Fun.id) ?(keyspace = 0) ?(duration = default_duration)
    ~gates:sgates ~desc:sdesc sname =
  {
    sname;
    sdesc;
    nnodes;
    nclients;
    nconns;
    set_pct;
    zipfian;
    incast;
    kill_frac;
    churn;
    sthink = think;
    tune;
    s_items = keyspace;
    sduration = duration;
    sgates;
  }

let kill_duration = if quick then 240_000 else 600_000

(* Gate calibration: bounds are ~2x the measured steady-state values of
   the seed run, so they catch regressions (queueing collapse, broken
   rerouting) without tripping on scheduler noise. *)
let matrix =
  [
    scen "baseline"
      ~desc:"1:1 — balanced fleet, uniform keys, 4 shards"
      ~gates:(gates ~max_p99:200_000 ~min_goodput:10.0 ());
    scen "incast"
      ~desc:"N:1 — every client keyed onto node 0's shard"
      ~incast:true
      ~gates:(gates ~max_p99:400_000 ~min_goodput:2.0 ());
    scen "all-to-all"
      ~desc:"every client pool fans out over every shard"
      ~nclients:(if quick then 1024 else 2048)
      ~nconns:32
      ~gates:(gates ~max_p99:500_000 ~min_goodput:15.0 ());
    (* moderate load: the recovery gate measures rerouting, not the raw
       capacity loss of 4 -> 3 nodes, so the fleet must not saturate *)
    scen "node-kill"
      ~desc:"node 1 crashes mid-run; ring replays, fleet reroutes"
      ~nclients:256 ~kill_frac:0.4 ~duration:kill_duration
      ~gates:
        (gates ~max_p99:0 ~min_goodput:5.0 ~recovery_pct:90.0
           ~reroute_cycles:(2 * Cluster.default_config.Cluster.probe_interval + 40_000)
           ());
    scen "churn-storm"
      ~desc:"connections recycled continuously under load"
      ~churn:(if quick then 2_000 else 1_000)
      ~gates:(gates ~max_p99:350_000 ~min_goodput:8.0 ());
    scen "hot-key"
      ~desc:"Zipf 0.99 skew — one shard owns the hot keys"
      ~zipfian:true
      ~gates:(gates ~max_p99:200_000 ~min_goodput:10.0 ~max_spread:3.0 ());
    (* the front-cache A/B pair: the same Zipf skew, but shaped so the
       cache's target — the hot shard's delegation fan-in — is the
       bottleneck and everything else has headroom. Eight narrow shards
       (4 pollers each) concentrate the skew: the hot shard owns a
       larger share of the traffic than its share of the fleet, so the
       control arm is hot-node-bound (its p99 spread shows the convoy)
       while the fleet itself is not. Saturated (enough clients that
       throughput is capacity-bound, not think-time-bound) and
       read-mostly: each applied set invalidates every poller's replica
       of the key, so hits between invalidations scale as the get/set
       ratio over the poller count — at 10% sets a front cache cannot
       pay for itself, at 1% it must. Fewer pollers per node helps the
       cache twice: fewer replicas to invalidate per set, and more
       lookups per poller to feed the LFU duel. The keyspace is pinned
       at 4096 in both modes: the Zipf working set deepens with the key
       range, so letting the matrix default widen it in full mode
       dilutes the hit rate past what any cache size recovers (the
       measured ceiling at 16384 keys is ~78% hit / 1.43x even with a
       4x cache) — the A/B measures the cache, not the key range.
       hot-key-warm is the cache-off arm; hot-key-fc is identical plus
       a keyspace/8-entry per-poller front cache, and all() gates
       hot-key-fc at >= 1.5x hot-key-warm. *)
    scen "hot-key-warm"
      ~desc:"Zipf 0.99 skew, 8 shards, saturated, read-mostly — control arm"
      ~zipfian:true ~nnodes:8 ~nclients:8192 ~nconns:32 ~set_pct:1
      ~keyspace:4096 ~duration:(8 * default_duration)
      ~tune:(fun c -> { c with Cluster.npollers = 4 })
      ~gates:(gates ~max_p99:3_200_000 ~min_goodput:10.0 ());
    scen "hot-key-fc"
      ~desc:"Zipf 0.99 skew, 8 shards, saturated, front cache on"
      ~zipfian:true ~nnodes:8 ~nclients:8192 ~nconns:32 ~set_pct:1
      ~keyspace:4096 ~duration:(8 * default_duration)
      ~tune:(fun c ->
        {
          c with
          Cluster.npollers = 4;
          server = { c.Cluster.server with Server.front_cache = 4096 / 8 };
        })
      ~gates:(gates ~max_p99:3_200_000 ~min_goodput:15.0 ~max_spread:3.0 ());
    (* fleet scale: every user opens its own connection (nconns = nclients
       makes the per-node slot unique per user), one request each,
       uniformly staggered across the run by think = duration. Small rings
       bound per-connection footprint; the arrival rate (nclients/duration
       ~ 0.008 ops/cycle) sits well under the fleet's service ceiling, so
       the gates measure the connection machinery rather than a retry
       storm at saturation. This stage is what exposed the tail-locality
       ring bug fixed in Dps.attach: npollers = 10 with locality_size 4
       leaves a 2-member tail locality, and before the fold its
       partition's rings at the two missing member indices were served
       by nobody — every delegated get from the affected pollers waited
       out the full 50k-cycle escalation timeout, their connection
       queues crossed the shed threshold, and the per-connection retries
       re-concentrated on the same pollers in a metastable shed-retry
       storm (30% of ops dropped). One knob stays tuned for fleet scale:
       the shed threshold gets headroom over the 512-conn-node default,
       which at 65k conns/node is a cliff one random arrival burst away.
       Idle pollers need no tuning: they park until a connection or a
       delegation wakes them. *)
    (let n = if quick then 262_144 else 1_000_000 in
     let dur = if quick then 32_000_000 else 128_000_000 in
     scen "scale"
       ~desc:(Printf.sprintf "%dk connections, one request each" (n / 1000))
       ~nclients:n ~nconns:n ~think:dur ~duration:dur
       ~tune:(fun c ->
         {
           c with
           Cluster.npollers = 10;
           server =
             { c.Cluster.server with Server.max_conns = n; shed_threshold = 512 };
           net = { c.Cluster.net with Net.ring_lines = 8 };
         })
       ~gates:(gates ~max_p99:250_000 ~min_goodput:10.0 ~min_conns:250_000 ()));
  ]

(* --- running one scenario --- *)

type outcome = {
  s : scenario;
  rr : Netload.routed_result;
  verdict : Eo.verdict;
  kill_at : int;  (* -1 when no kill *)
  declared_at : int;  (* -1 when no failover happened *)
  pre_goodput : float;  (* mean completions/window before the kill *)
  post_goodput : float;  (* mean completions/window at the tail of the run *)
  fc : Frontcache.stats;  (* summed across every node's pollers *)
  spread : float;  (* hottest node p99 / median node p99 *)
  failures : string list;
}

(* hot-shard skew witness: the hottest node's p99 over the median node's
   p99, among nodes that completed work. 1.0 when fewer than two nodes
   report (nothing to spread). *)
let p99_spread (rr : Netload.routed_result) =
  let ps =
    Array.to_list rr.Netload.per_node_p99
    |> List.filteri (fun i _ -> rr.Netload.per_node_completed.(i) > 0)
    |> List.filter (fun p -> p > 0)
    |> List.sort compare
  in
  match ps with
  | [] | [ _ ] -> 1.0
  | _ ->
      let n = List.length ps in
      let med = List.nth ps (n / 2) in
      let hot = List.nth ps (n - 1) in
      float_of_int hot /. float_of_int (max 1 med)

let run_scenario (s : scenario) =
  let items = if s.s_items > 0 then s.s_items else items in
  let m = Machine.create scaled_config in
  let sched = Sthread.create m in
  let eo = Eo.create () in
  let ccfg =
    s.tune
      {
        Cluster.default_config with
        Cluster.nnodes = s.nnodes;
        buckets = items;
        capacity = 2 * items;
      }
  in
  let cluster =
    Cluster.create sched
      ~on_set_applied:(fun ~node ~tag -> if tag <> 0 then Eo.apply eo ~opid:tag ~node)
      ccfg
  in
  Cluster.populate cluster ~keys:(Array.init items Fun.id) ~val_lines:2;
  Cluster.start_probe cluster;
  let kill_at =
    if s.kill_frac > 0.0 then begin
      let at = int_of_float (float_of_int s.sduration *. s.kill_frac) in
      let faults = Dps_faults.install sched ~seed:7L (Dps_faults.spec ()) in
      Cluster.schedule_kill cluster faults ~node:1 ~at;
      at
    end
    else -1
  in
  let key_pool =
    if s.incast then
      Some
        (Array.of_seq
           (Seq.filter
              (fun k -> Ring.lookup (Cluster.ring cluster) k = 0)
              (Seq.init items Fun.id)))
    else None
  in
  let base =
    Netload.spec ~nclients:s.nclients ~nconns:s.nconns ~set_pct:s.set_pct
      ~key_range:items ~zipfian:s.zipfian
      ~mode:(Netload.Closed { think = (if s.sthink > 0 then s.sthink else 4_000) })
      ()
  in
  let rs =
    Netload.rspec ~base ?key_pool ~churn_interval:s.churn
      ~on_acked:(fun ~opid ~node -> Eo.ack eo ~opid ~node)
      ()
  in
  let rr =
    Netload.run_routed sched (Cluster.router cluster) rs ~duration:s.sduration
      ~stop:(fun () -> Cluster.stop cluster)
      ()
  in
  let fc = Frontcache.zero_stats () in
  for i = 0 to Cluster.node_count cluster - 1 do
    Frontcache.add_stats ~into:fc (Server.fc_stats (Cluster.node cluster i).Cluster.server)
  done;
  let spread = p99_spread rr in
  let verdict = Eo.check eo ~node_dead:(Cluster.node_dead cluster) in
  let declared_at =
    match Cluster.failover_log cluster with (_, t) :: _ -> t | [] -> -1
  in
  (* goodput recovery: mean completions/window over the windows fully
     before the kill vs the last quarter of the run (post-reroute). *)
  let tl = rr.Netload.goodput_timeline in
  let w = rr.Netload.window_cycles in
  let mean lo hi =
    if hi <= lo then 0.0
    else begin
      let s = ref 0 in
      for i = lo to hi - 1 do
        s := !s + tl.(i)
      done;
      float_of_int !s /. float_of_int (hi - lo)
    end
  in
  (* only full windows inside the issue horizon: the trailing +1 window
     holds drain-grace completions and would understate the tail *)
  let nfull = min (Array.length tl) (s.sduration / w) in
  let pre, post =
    if kill_at < 0 then (0.0, 0.0)
    else
      let kw = min (nfull - 1) (kill_at / w) in
      (mean 0 kw, mean (nfull - (nfull / 4)) nfull)
  in
  let g = s.sgates in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt in
  if g.g_max_p99 > 0 && rr.Netload.agg.Netload.p99 > g.g_max_p99 then
    fail "p99 %d > %d" rr.Netload.agg.Netload.p99 g.g_max_p99;
  if
    g.g_min_goodput > 0.0
    && rr.Netload.agg.Netload.throughput_mops < g.g_min_goodput
  then fail "goodput %.2f < %.2f Mops" rr.Netload.agg.Netload.throughput_mops g.g_min_goodput;
  if g.g_exactly_once && not (Eo.ok verdict) then
    fail "exactly-once violated: %d lost-acked, %d double-applied"
      (List.length verdict.Eo.lost_acked)
      (List.length verdict.Eo.double_applied);
  if g.g_reroute_cycles > 0 then begin
    if declared_at < 0 then fail "node kill never detected"
    else if declared_at - kill_at > g.g_reroute_cycles then
      fail "reroute took %d cycles > %d" (declared_at - kill_at) g.g_reroute_cycles
  end;
  if g.g_recovery_pct > 0.0 then begin
    let pct = if pre > 0.0 then 100.0 *. post /. pre else 0.0 in
    if pct < g.g_recovery_pct then
      fail "goodput recovered to %.1f%% < %.1f%% of pre-kill" pct g.g_recovery_pct
  end;
  if g.g_max_spread > 0.0 && spread > g.g_max_spread then
    fail "per-node p99 spread %.2fx > %.2fx" spread g.g_max_spread;
  if g.g_min_conns > 0 && rr.Netload.conns_opened < g.g_min_conns then
    fail "only %d connections opened < %d" rr.Netload.conns_opened g.g_min_conns;
  {
    s;
    rr;
    verdict;
    kill_at;
    declared_at;
    pre_goodput = pre;
    post_goodput = post;
    fc;
    spread;
    failures = List.rev !failures;
  }

(* --- reporting --- *)

let fc_lookups (fc : Frontcache.stats) =
  fc.Frontcache.hits + fc.Frontcache.misses + fc.Frontcache.stale

let fc_hit_rate (fc : Frontcache.stats) =
  let n = fc_lookups fc in
  if n = 0 then 0.0 else float_of_int fc.Frontcache.hits /. float_of_int n

let record (o : outcome) =
  let r = o.rr.Netload.agg in
  json_record ~series:o.s.sname ~x:"result"
    [
      ("goodput_mops", r.Netload.throughput_mops);
      ("p50", float_of_int r.Netload.p50);
      ("p99", float_of_int r.Netload.p99);
      ("p999", float_of_int r.Netload.p999);
      ("issued", float_of_int r.Netload.issued);
      ("completed", float_of_int r.Netload.completed);
      ("retries", float_of_int o.rr.Netload.retries);
      ("rerouted", float_of_int o.rr.Netload.rerouted);
      ("busy", float_of_int o.rr.Netload.busy);
      ("timeouts", float_of_int o.rr.Netload.timeouts);
      ("dropped", float_of_int o.rr.Netload.dropped);
      ("abandoned", float_of_int o.rr.Netload.abandoned);
      ("churned", float_of_int o.rr.Netload.churned);
      ("acked", float_of_int o.verdict.Eo.acked);
      ("cache_lost", float_of_int o.verdict.Eo.cache_lost);
      ("lost_acked", float_of_int (List.length o.verdict.Eo.lost_acked));
      ("double_applied", float_of_int (List.length o.verdict.Eo.double_applied));
      ("conns_opened", float_of_int o.rr.Netload.conns_opened);
      ("p99_spread", o.spread);
      ("fc_hit_rate", fc_hit_rate o.fc);
      ("fc_hits", float_of_int o.fc.Frontcache.hits);
      ("fc_stale", float_of_int o.fc.Frontcache.stale);
      ("fc_invals", float_of_int o.fc.Frontcache.invals);
      ("pass", if o.failures = [] then 1.0 else 0.0);
    ];
  (* the goodput-vs-kill-event figure: completions per window, with the
     kill and declared-dead times in window units alongside *)
  if o.kill_at >= 0 then begin
    let w = o.rr.Netload.window_cycles in
    Array.iteri
      (fun i c ->
        json_record
          ~series:(o.s.sname ^ "/timeline")
          ~x:(string_of_int i)
          [
            ("goodput", float_of_int c);
            ("kill_window", float_of_int o.kill_at /. float_of_int w);
            ("declared_window", float_of_int o.declared_at /. float_of_int w);
          ])
      o.rr.Netload.goodput_timeline
  end

let print_outcome (o : outcome) =
  let r = o.rr.Netload.agg in
  Printf.printf "%-11s %8.2f Mops  p99 %8d  retry %5d  reroute %4d  busy %5d  drop %3d  %s\n"
    o.s.sname r.Netload.throughput_mops r.Netload.p99 o.rr.Netload.retries
    o.rr.Netload.rerouted o.rr.Netload.busy o.rr.Netload.dropped
    (if o.failures = [] then "PASS" else "FAIL");
  if o.kill_at >= 0 then
    Printf.printf "%-11s   kill@%d declared@%d (+%d cyc)  goodput/window %.1f -> %.1f\n" ""
      o.kill_at o.declared_at
      (if o.declared_at >= 0 then o.declared_at - o.kill_at else -1)
      o.pre_goodput o.post_goodput;
  Printf.printf "%-11s   exactly-once: %s\n" "" (Format.asprintf "%a" Eo.pp_verdict o.verdict);
  Printf.printf "%-11s   conns %d  p99 spread %.2fx\n" "" o.rr.Netload.conns_opened o.spread;
  if fc_lookups o.fc > 0 then
    Printf.printf "%-11s   front-cache: %.1f%% hit (%d hits, %d stale, %d invals, %d admits)\n"
      "" (100.0 *. fc_hit_rate o.fc) o.fc.Frontcache.hits o.fc.Frontcache.stale
      o.fc.Frontcache.invals o.fc.Frontcache.admits;
  List.iter (fun msg -> Printf.printf "%-11s   GATE: %s\n" "" msg) o.failures

let all () =
  print_header "Cluster: sharded serving with failover — stress-scenario matrix";
  Printf.printf "%d nodes default, %d keys, scaled machine; quick=%b\n%!"
    Cluster.default_config.Cluster.nnodes items quick;
  let outcomes = map_points run_scenario matrix in
  List.iter
    (fun o ->
      Printf.printf "-- %s: %s\n" o.s.sname o.s.sdesc;
      record o;
      print_outcome o)
    outcomes;
  (* cross-stage gate: the front cache must actually buy throughput on
     the skewed workload it exists for. Recorded as its own series so the
     regression harness tracks the speedup alongside the hit rate. *)
  let fc_failures =
    let find n = List.find_opt (fun o -> o.s.sname = n) outcomes in
    match (find "hot-key-warm", find "hot-key-fc") with
    | Some off, Some on_ when off.rr.Netload.agg.Netload.throughput_mops > 0.0 ->
        let speedup =
          on_.rr.Netload.agg.Netload.throughput_mops
          /. off.rr.Netload.agg.Netload.throughput_mops
        in
        let ok = speedup >= 1.5 in
        Printf.printf "front-cache speedup on saturated hot-key: %.2fx (gate >= 1.50x)  %s\n"
          speedup (if ok then "PASS" else "FAIL");
        json_record ~series:"front-cache" ~x:"speedup"
          [
            ("speedup", speedup);
            ("fc_hit_rate", fc_hit_rate on_.fc);
            ("pass", if ok then 1.0 else 0.0);
          ];
        if ok then [] else [ Printf.sprintf "front-cache speedup %.2fx < 1.5x" speedup ]
    | _ -> []
  in
  let failed = List.filter (fun o -> o.failures <> []) outcomes in
  let n_failed = List.length failed + List.length fc_failures in
  if n_failed = 0 then
    Printf.printf "CLUSTER MATRIX: ALL %d STAGES PASS\n%!" (List.length outcomes)
  else begin
    Printf.printf "CLUSTER MATRIX: %d/%d STAGES FAILED (%s)\n%!" n_failed
      (List.length outcomes)
      (String.concat ", "
         (List.map (fun o -> o.s.sname) failed @ fc_failures))
  end
