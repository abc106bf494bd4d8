(** The benchmark's four workloads, built only from the public APIs of
    [lib/]. Each workload is a closed loop whose inputs come from the
    run's seed: the seed feeds [Machine.create ~seed], [Netload.spec
    ~seed] and the benchmark's own key generators, so one seed always
    simulates exactly the same thing.

    A workload is set up (machine, runtime or cluster, population), run
    once, then checked. Host time is measured by the caller around
    [setup] and [run]; everything in {!sim} is simulated and must repeat
    bit for bit across repetitions and across traced and untraced runs. *)

module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Prng = Dps_simcore.Prng
module Keydist = Dps_workload.Keydist
module Netload = Dps_workload.Netload
module Cluster = Dps_cluster.Cluster
module Server = Dps_server.Server
module Frontcache = Dps_server.Frontcache
module Net = Dps_net.Net
module Registry = Dps_obs.Registry
module Eo = Dps_check.Eo
module Bst = Dps_ds.Bst_tk

(* Simulated outcome of one run. *)
type sim = {
  issued : int;  (** operations (deleg-sets) or logical requests (kv, fleet) *)
  completed : int;
  failed : int;
      (** errors + dropped + refused; requests still in flight when the
          drain deadline ends the run are abandoned, not failed *)
  mops : float;  (** completed per simulated second *)
  p50 : int;  (** cycles *)
  p99 : int;
  end_time : int;  (** simulated clock when the run drained *)
  accesses : int;  (** charged machine accesses *)
}

type instance = {
  sched : Sthread.t;
  run : traced:bool -> sim;
      (** [traced] additionally records the benchmark's own spans (only
          deleg-sets has any); it never changes what is simulated *)
  check : unit -> string list;  (** correctness failures after the run; [] when correct *)
  layers : sim -> (string * float) list;
      (** per-layer metrics read from public stats after the run *)
}

type t = { name : string; setup : seed:int -> scale:float -> instance }

let scaled scale n = max 1 (int_of_float (Float.round (float_of_int n *. scale)))
let per n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d

let mops_of m ~completed ~duration =
  if completed = 0 then 0.0
  else float_of_int completed /. Machine.cycles_to_seconds m duration /. 1e6

(* Growable sample buffer with exact nearest-rank percentiles: the
   benchmark's own latency spans, not the lib's bucketed histograms. *)
module Samples = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 4096 0; n = 0 }

  let add t v =
    if t.n = Array.length t.a then begin
      let b = Array.make (2 * t.n) 0 in
      Array.blit t.a 0 b 0 t.n;
      t.a <- b
    end;
    t.a.(t.n) <- v;
    t.n <- t.n + 1

  let sorted t =
    let s = Array.sub t.a 0 t.n in
    Array.sort compare s;
    s

  let rank s p =
    let n = Array.length s in
    if n = 0 then 0 else s.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

  let mean t =
    if t.n = 0 then 0.0
    else begin
      let sum = ref 0 in
      for i = 0 to t.n - 1 do
        sum := !sum + t.a.(i)
      done;
      float_of_int !sum /. float_of_int t.n
    end
end

(* --- deleg-sets: DPS over BST-TK partitions, Figure 9(a)'s point --- *)

let deleg_threads = 80
let deleg_keys = 4096
let deleg_duration = 1_000_000

(* Mix keys before the modulo so partition load does not depend on key
   parity (the population is the odd keys). *)
let partition_hash k = (k * 0x9E3779B1) lsr 8

let deleg_sets ~seed ~scale =
  let m = Machine.create ~seed:(Int64.of_int seed) (Machine.config_scaled ()) in
  let sched = Sthread.create m in
  let dps =
    Dps.create sched ~nclients:deleg_threads ~locality_size:10 ~hash:partition_hash
      ~mk_data:(fun (info : Dps.partition_info) -> Bst.create info.Dps.alloc)
      ()
  in
  (* odd keys of [0, 2 * keys): Zipf draws over the whole range hit and
     miss in equal measure, as in ASCYLIB's harness *)
  let nparts = Dps.npartitions dps in
  let parts = Array.make nparts [] in
  for i = 0 to deleg_keys - 1 do
    let k = (2 * i) + 1 in
    let p = Dps.partition_of_key dps k in
    parts.(p) <- k :: parts.(p)
  done;
  (* balanced insertion order, BST-TK's preferred cold population *)
  Array.iteri
    (fun p keys ->
      let sorted = Array.of_list keys in
      Array.sort compare sorted;
      let bst = Dps.partition_data dps p in
      let rec go lo hi =
        if lo <= hi then begin
          let mid = (lo + hi) / 2 in
          ignore (Bst.insert bst ~key:sorted.(mid) ~value:sorted.(mid));
          go lo (mid - 1);
          go (mid + 1) hi
        end
      in
      go 0 (Array.length sorted - 1))
    parts;
  let master = Prng.create (Int64.of_int seed) in
  let prngs = Array.init deleg_threads (fun _ -> Prng.split master) in
  let dist = Keydist.zipf ~range:(2 * deleg_keys) () in
  let duration = scaled scale deleg_duration in
  let lat = Samples.create () in
  let inserted = ref 0 and removed = ref 0 in
  let op_cyc = ref 0 and op_n = ref 0 in
  let run ~traced =
    let horizon = Sthread.now sched + duration in
    for tid = 0 to deleg_threads - 1 do
      Sthread.spawn sched ~hw:(Dps.client_hw dps tid) (fun () ->
          Dps.attach dps ~client:tid;
          let p = prngs.(tid) in
          (* the span inside the delegated closure: the data-structure
             operation alone, on whichever thread serves it *)
          let timed f s =
            if traced then begin
              let t0 = Sthread.time () in
              let r = f s in
              op_cyc := !op_cyc + (Sthread.time () - t0);
              incr op_n;
              r
            end
            else f s
          in
          while Sthread.time () < horizon do
            let key = Keydist.sample dist p in
            let call f = Dps.call dps ~key (timed f) in
            let t0 = Sthread.time () in
            (if Prng.int p 100 >= 50 then
               ignore (call (fun s -> match Bst.lookup s key with Some v -> v | None -> -1))
             else if Prng.bool p then begin
               if call (fun s -> Bool.to_int (Bst.insert s ~key ~value:key)) = 1 then incr inserted
             end
             else if call (fun s -> Bool.to_int (Bst.remove s key)) = 1 then incr removed);
            Samples.add lat (Sthread.time () - t0)
          done;
          Dps.client_done dps;
          Dps.drain dps)
    done;
    Sthread.run sched;
    let s = Samples.sorted lat in
    {
      issued = lat.Samples.n;
      completed = lat.Samples.n;
      failed = 0;
      mops = mops_of m ~completed:lat.Samples.n ~duration;
      p50 = Samples.rank s 0.50;
      p99 = Samples.rank s 0.99;
      end_time = Sthread.now sched;
      accesses = Dps_simcore.Stats.get (Machine.stats m) "accesses";
    }
  in
  let check () =
    let errs = ref [] in
    let total = ref 0 in
    for p = 0 to nparts - 1 do
      let bst = Dps.partition_data dps p in
      (match Bst.check_invariants bst with
      | () -> ()
      | exception Failure msg -> errs := Printf.sprintf "partition %d: %s" p msg :: !errs);
      let keys = Bst.to_list bst in
      total := !total + List.length keys;
      List.iter
        (fun (k, _) ->
          if Dps.partition_of_key dps k <> p then
            errs := Printf.sprintf "key %d stored in partition %d" k p :: !errs)
        keys
    done;
    let expect = deleg_keys + !inserted - !removed in
    if !total <> expect then
      errs :=
        Printf.sprintf "%d keys across partitions, expected %d (4096 + %d inserted - %d removed)"
          !total expect !inserted !removed
        :: !errs;
    List.rev !errs
  in
  let layers (_ : sim) =
    let h = Dps.health dps in
    let s = Samples.sorted lat in
    let call_mean = Samples.mean lat in
    let op_mean = if !op_n = 0 then 0.0 else float_of_int !op_cyc /. float_of_int !op_n in
    [
      ("ds.op_mean_cyc", op_mean);
      ("dps.call_p50_cyc", float_of_int (Samples.rank s 0.50));
      ("dps.call_p99_cyc", float_of_int (Samples.rank s 0.99));
      ("dps.overhead_mean_cyc", call_mean -. op_mean);
      ( "dps.delegated_frac",
        per (Dps.delegated_ops dps) (Dps.delegated_ops dps + Dps.local_ops dps) );
      ("dps.takeovers", float_of_int h.Dps.takeovers);
      ("dps.retries", float_of_int h.Dps.retries);
    ]
  in
  { sched; run; check; layers }

(* --- the cluster workloads: routed memcached fleets over DPS-backed nodes --- *)

type fleet_shape = {
  nnodes : int;
  npollers : int;
  nclients : int;
  set_pct : int;
  zipfian : bool;
  keys : int;
  front_cache : int;
  duration : int;
  one_request_per_user : bool;
      (** fleet-scale: every user dials its own connection and sends one
          request, arrivals spread uniformly over the run. Otherwise users
          share 32 connections per node and think 4000 cycles between
          requests. *)
}

(* hot-shard skew witness: the hottest node's p99 over the median node's *)
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
      float_of_int (List.nth ps (n - 1)) /. float_of_int (max 1 (List.nth ps (n / 2)))

let fleet (sh : fleet_shape) ~seed ~scale =
  let m = Machine.create ~seed:(Int64.of_int seed) (Machine.config_scaled ()) in
  let sched = Sthread.create m in
  let eo = Eo.create () in
  let d = Cluster.default_config in
  let per_user = sh.one_request_per_user in
  let nclients = scaled scale sh.nclients in
  let duration = scaled scale sh.duration in
  let srv = { d.Cluster.server with Server.front_cache = sh.front_cache } in
  (* at fleet scale: small rings bound per-connection memory, a clamped
     park ceiling keeps idle pollers from sleeping through delegated gets,
     and the shed threshold gets headroom over the per-node default (the
     cluster figure's scale stage) *)
  let ccfg =
    {
      d with
      Cluster.nnodes = sh.nnodes;
      npollers = sh.npollers;
      buckets = sh.keys;
      capacity = 2 * sh.keys;
      server =
        (if per_user then
           { srv with Server.max_conns = nclients; park_max = 2_000; shed_threshold = 512 }
         else srv);
      net = (if per_user then { d.Cluster.net with Net.ring_lines = 8 } else d.Cluster.net);
    }
  in
  let cluster =
    Cluster.create sched
      ~on_set_applied:(fun ~node ~tag -> if tag <> 0 then Eo.apply eo ~opid:tag ~node)
      ccfg
  in
  Cluster.populate cluster ~keys:(Array.init sh.keys Fun.id) ~val_lines:2;
  Cluster.start_probe cluster;
  let rs =
    Netload.rspec
      ~base:
        (Netload.spec ~nclients
           ~nconns:(if per_user then nclients else 32)
           ~set_pct:sh.set_pct ~key_range:sh.keys ~zipfian:sh.zipfian
           ~mode:(Netload.Closed { think = (if per_user then duration else 4_000) })
           ~seed:(Int64.of_int seed) ())
      ~on_acked:(fun ~opid ~node -> Eo.ack eo ~opid ~node)
      ()
  in
  let result = ref None in
  let run ~traced:_ =
    let rr =
      Netload.run_routed sched (Cluster.router cluster) rs ~duration
        ~stop:(fun () -> Cluster.stop cluster)
        ()
    in
    result := Some rr;
    let a = rr.Netload.agg in
    (* goodput inside the issue window: completions during the drain grace
       after it do not count *)
    let tl = rr.Netload.goodput_timeline and wc = rr.Netload.window_cycles in
    let nfull = min (Array.length tl) (duration / wc) in
    {
      issued = a.Netload.issued;
      completed = a.Netload.completed;
      failed = a.Netload.errors + rr.Netload.dropped + a.Netload.refused_conns;
      mops =
        mops_of m
          ~completed:(Array.fold_left ( + ) 0 (Array.sub tl 0 nfull))
          ~duration:(nfull * wc);
      p50 = a.Netload.p50;
      p99 = a.Netload.p99;
      end_time = Sthread.now sched;
      accesses = Dps_simcore.Stats.get (Machine.stats m) "accesses";
    }
  in
  let nodes () = List.init (Cluster.node_count cluster) (Cluster.node cluster) in
  let sum f = List.fold_left (fun acc n -> acc + f n) 0 (nodes ()) in
  let check () =
    match !result with
    | None -> [ "workload never ran" ]
    | Some rr ->
        let errs = ref [] in
        let v = Eo.check eo ~node_dead:(Cluster.node_dead cluster) in
        if not (Eo.ok v) then
          errs := Format.asprintf "exactly-once violated: %a" Eo.pp_verdict v :: !errs;
        let bad = sum (fun n -> (Server.stats n.Cluster.server).Server.bad_requests) in
        if rr.Netload.agg.Netload.errors > 0 || bad > 0 then
          errs :=
            Printf.sprintf "%d protocol errors seen by clients, %d bad requests seen by servers"
              rr.Netload.agg.Netload.errors bad
            :: !errs;
        if per_user && rr.Netload.conns_opened <> nclients then
          errs :=
            Printf.sprintf "%d connections opened, expected one per user (%d)"
              rr.Netload.conns_opened nclients
            :: !errs;
        List.rev !errs
  in
  let layers (r : sim) =
    match !result with
    | None -> []
    | Some rr ->
        let req n = per n r.completed in
        let net f = sum (fun n -> f (Net.stats n.Cluster.net)) in
        let srv f = sum (fun n -> f (Server.stats n.Cluster.server)) in
        let fc = Frontcache.zero_stats () in
        List.iter
          (fun n -> Frontcache.add_stats ~into:fc (Server.fc_stats n.Cluster.server))
          (nodes ());
        let health f =
          sum (fun n ->
              match n.Cluster.backend.Dps_memcached.Variants.health with
              | Some h -> f (h ())
              | None -> 0)
        in
        (* the backends' delegation counters are published only through
           the metrics registry *)
        let reg = Registry.create () in
        Cluster.register_obs cluster reg;
        let gauge name =
          List.fold_left
            (fun acc (s : Registry.sample) ->
              match s.Registry.value with
              | Registry.Gauge_v v when s.Registry.name = name -> acc +. v
              | _ -> acc)
            0.0 (Registry.snapshot reg)
        in
        let delegated = gauge "dps.delegated_ops" and local = gauge "dps.local_ops" in
        let local_lines = net (fun s -> s.Net.local_lines) in
        let sets = srv (fun s -> s.Server.sets) in
        [
          ( "dps.delegated_frac",
            if delegated +. local = 0.0 then 0.0 else delegated /. (delegated +. local) );
          ("dps.takeovers", float_of_int (health (fun h -> h.Dps.takeovers)));
          ("dps.retries", float_of_int (health (fun h -> h.Dps.retries)));
          ("net.pkts_per_req", req (net (fun s -> s.Net.pkts_rx + s.Net.pkts_tx)));
          ("net.dma_lines_per_req", req (net (fun s -> s.Net.dma_lines)));
          ("net.local_frac", per local_lines (local_lines + net (fun s -> s.Net.remote_lines)));
          ("net.backpressured", float_of_int (net (fun s -> s.Net.backpressured)));
          ("srv.batches_per_req", req (srv (fun s -> s.Server.batches)));
          ("srv.parks_per_req", req (srv (fun s -> s.Server.parks)));
          ("srv.shed", float_of_int (srv (fun s -> s.Server.shed)));
          ( "fc.hit_frac",
            per fc.Frontcache.hits
              (fc.Frontcache.hits + fc.Frontcache.misses + fc.Frontcache.stale) );
          ("fc.stale", float_of_int fc.Frontcache.stale);
          ("fc.invals_per_set", per fc.Frontcache.invals sets);
          ("fc.admits", float_of_int fc.Frontcache.admits);
          ("netload.timeouts_frac", per rr.Netload.timeouts r.issued);
          ("netload.abandoned", float_of_int rr.Netload.abandoned);
          ("netload.retries", float_of_int rr.Netload.retries);
          ("netload.conns_opened", float_of_int rr.Netload.conns_opened);
          ("cluster.p99_spread", p99_spread rr);
          (* not printed: the ledger's count of wire round trips *)
          ("net.requests", float_of_int r.completed);
        ]
  in
  { sched; run; check; layers }

(* The hot-key-fc shape of the cluster figure: eight narrow shards, a
   saturated read-mostly Zipf fleet and a 512-entry per-poller front
   cache. *)
let kv_shape ~set_pct ~duration =
  {
    nnodes = 8;
    npollers = 4;
    nclients = 8192;
    set_pct;
    zipfian = true;
    keys = 4096;
    front_cache = 512;
    duration;
    one_request_per_user = false;
  }

(* The cluster figure's scale stage, shrunk: one connection and one request
   per user. *)
let fleet_shape =
  {
    nnodes = 4;
    npollers = 10;
    nclients = 8192;
    set_pct = 10;
    zipfian = false;
    keys = 4096;
    front_cache = 0;
    duration = 1_000_000;
    one_request_per_user = true;
  }

(* Why each workload exists is recorded in README.md and BENCHMARK.json. *)
let all =
  [
    { name = "deleg-sets"; setup = deleg_sets };
    { name = "kv-hot-read"; setup = fleet (kv_shape ~set_pct:1 ~duration:1_000_000) };
    { name = "kv-write-heavy"; setup = fleet (kv_shape ~set_pct:50 ~duration:2_000_000) };
    { name = "fleet-scale"; setup = fleet fleet_shape };
  ]

let find name = List.find_opt (fun w -> w.name = name) all
