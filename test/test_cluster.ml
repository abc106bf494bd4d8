(* Cluster layer: consistent-hash ring properties, sharded end-to-end
   serving, node-kill failover with the exactly-once oracle, and load
   shedding under overload. *)

module Machine = Dps_machine.Machine
module Sthread = Dps_sthread.Sthread
module Netload = Dps_workload.Netload
module Cluster = Dps_cluster.Cluster
module Ring = Dps_cluster.Ring
module Eo = Dps_check.Eo

let mk () = Sthread.create (Machine.create (Machine.config_scaled ()))

(* --- ring properties (pure) --- *)

let test_ring_coverage () =
  let r = Ring.create ~nnodes:4 in
  let nkeys = 10_000 in
  let owned = Array.make 4 0 in
  for k = 0 to nkeys - 1 do
    let n = Ring.lookup r k in
    Alcotest.(check bool) "owner in range" true (n >= 0 && n < 4);
    owned.(n) <- owned.(n) + 1
  done;
  Array.iteri
    (fun n c ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d owns >= 5%% (got %d)" n c)
        true
        (c * 20 >= nkeys))
    owned;
  (* the layout is seedless: a second ring agrees on every owner *)
  let r' = Ring.create ~nnodes:4 in
  for k = 0 to 999 do
    Alcotest.(check int) "deterministic layout" (Ring.lookup r k) (Ring.lookup r' k)
  done

let test_ring_remove_stability () =
  let r = Ring.create ~nnodes:4 in
  let nkeys = 10_000 in
  let before = Array.init nkeys (Ring.lookup r) in
  Ring.remove r 1;
  Alcotest.(check bool) "node 1 no longer live" false (Ring.is_live r 1);
  let remapped = ref 0 in
  for k = 0 to nkeys - 1 do
    let now = Ring.lookup r k in
    if before.(k) = 1 then begin
      incr remapped;
      Alcotest.(check bool) "orphan lands on a survivor" true (now <> 1)
    end
    else Alcotest.(check int) "survivor keys keep their owner" before.(k) now
  done;
  Alcotest.(check bool) "some keys actually remapped" true (!remapped > 0);
  (* idempotent *)
  Ring.remove r 1;
  Alcotest.(check int) "still 3 nodes" 3 (Ring.size r)

let test_ring_successor () =
  let r = Ring.create ~nnodes:4 in
  List.iter
    (fun n ->
      let s = Ring.successor r n in
      Alcotest.(check bool) "successor is live" true (Ring.is_live r s);
      Alcotest.(check bool) "successor is another node" true (s <> n))
    (Ring.nodes r);
  Ring.remove r 2;
  Ring.remove r 3;
  Alcotest.(check int) "successor with 2 live" 1 (Ring.successor r 0);
  Ring.remove r 1;
  Alcotest.(check int) "sole survivor is its own successor" 0 (Ring.successor r 0);
  Alcotest.check_raises "removing the last node raises"
    (Invalid_argument "Ring.remove: removing the last node") (fun () -> Ring.remove r 0)

(* --- qcheck ring properties --- *)

(* Replay an add/remove script; removals that would empty the ring are
   skipped (both copies skip them identically). *)
let apply_ops r ops =
  List.iter
    (fun (add, node) ->
      if add then Ring.add r node else if Ring.size r > 1 then Ring.remove r node)
    ops

let qcheck_ring_replay =
  QCheck.Test.make ~name:"ring: membership script replays to identical owners" ~count:100
    QCheck.(list (pair bool (int_bound 7)))
    (fun ops ->
      let a = Ring.create ~nnodes:4 and b = Ring.create ~nnodes:4 in
      apply_ops a ops;
      apply_ops b ops;
      Ring.nodes a = Ring.nodes b
      && List.for_all (fun k -> Ring.lookup a k = Ring.lookup b k) (List.init 512 Fun.id))

let qcheck_ring_add_movement =
  QCheck.Test.make ~name:"ring: add moves a bounded key share, all of it to the newcomer"
    ~count:60
    QCheck.(pair (int_range 1 7) (int_range 8 15))
    (fun (nnodes, newcomer) ->
      let r = Ring.create ~nnodes in
      let nkeys = 4096 in
      let before = Array.init nkeys (Ring.lookup r) in
      Ring.add r newcomer;
      let moved = ref 0 and misdirected = ref 0 in
      for k = 0 to nkeys - 1 do
        let now = Ring.lookup r k in
        if now <> before.(k) then begin
          incr moved;
          if now <> newcomer then incr misdirected
        end
      done;
      (* the newcomer's fair share is 1/(nnodes+1); 64 vnodes keeps the
         realized share well inside 3x of it *)
      let expect = nkeys / (nnodes + 1) in
      !misdirected = 0 && !moved > 0 && !moved < 3 * expect)

let qcheck_ring_remove_add_roundtrip =
  QCheck.Test.make ~name:"ring: remove then re-add restores every owner" ~count:60
    QCheck.(pair (int_range 2 8) (int_bound 7))
    (fun (nnodes, victim) ->
      QCheck.assume (victim < nnodes);
      let r = Ring.create ~nnodes in
      let nkeys = 2048 in
      let before = Array.init nkeys (Ring.lookup r) in
      Ring.remove r victim;
      Ring.add r victim;
      Ring.nodes r = List.init nnodes Fun.id && Array.init nkeys (Ring.lookup r) = before)

(* --- cluster end-to-end --- *)

let items = 2048

let mk_cluster ?(nnodes = 4) ?(shed_threshold = 0) sched eo =
  let cfg =
    {
      Cluster.default_config with
      Cluster.nnodes;
      buckets = items;
      capacity = 2 * items;
      server =
        { Cluster.default_config.Cluster.server with Dps_server.Server.shed_threshold };
    }
  in
  let c =
    Cluster.create sched
      ~on_set_applied:(fun ~node ~tag -> if tag <> 0 then Eo.apply eo ~opid:tag ~node)
      cfg
  in
  Cluster.populate c ~keys:(Array.init items Fun.id) ~val_lines:1;
  Cluster.start_probe c;
  c

(* An impossible cluster config fails at [create]: no pollers leaves a
   node with nobody to serve, and a zero probe period re-arms the probe at
   the same cycle forever. One test per field; the smallest legal value
   still builds. *)
let create_rejects_impossible =
  let create cfg = ignore (Cluster.create (mk ()) cfg) in
  let d = Cluster.default_config in
  List.map
    (fun (what, bad, smallest) ->
      ( "create rejects " ^ what,
        `Quick,
        fun () ->
          Alcotest.check_raises what (Invalid_argument ("Cluster.create: " ^ what)) (fun () ->
              create bad);
          create smallest ))
    [
      ("npollers < 1", { d with Cluster.npollers = 0 }, { d with Cluster.npollers = 1 });
      ( "probe_interval < 1",
        { d with Cluster.probe_interval = 0 },
        { d with Cluster.probe_interval = 1 } );
    ]

let run_fleet sched cluster eo ~nclients ~duration =
  let base = Netload.spec ~nclients ~nconns:4 ~set_pct:20 ~key_range:items () in
  let rs = Netload.rspec ~base ~on_acked:(fun ~opid ~node -> Eo.ack eo ~opid ~node) () in
  Netload.run_routed sched (Cluster.router cluster) rs ~duration
    ~stop:(fun () -> Cluster.stop cluster)
    ()

let test_cluster_end_to_end () =
  let s = mk () in
  let eo = Eo.create () in
  let c = mk_cluster s eo in
  let rr = run_fleet s c eo ~nclients:128 ~duration:80_000 in
  Alcotest.(check bool) "completed some ops" true (rr.Netload.agg.Netload.completed > 500);
  Alcotest.(check int) "nothing abandoned" 0 rr.Netload.abandoned;
  Alcotest.(check int) "all nodes stayed up" 4 (Cluster.nodes_up c);
  Array.iteri
    (fun n done_ ->
      Alcotest.(check bool) (Printf.sprintf "node %d served" n) true (done_ > 0))
    rr.Netload.per_node_completed;
  let v = Eo.check eo ~node_dead:(Cluster.node_dead c) in
  Alcotest.(check bool) (Format.asprintf "exactly-once: %a" Eo.pp_verdict v) true (Eo.ok v);
  Alcotest.(check bool) "sets were acked" true (v.Eo.acked > 0)

let test_cluster_deterministic () =
  let run () =
    let s = mk () in
    let eo = Eo.create () in
    let c = mk_cluster s eo in
    let rr = run_fleet s c eo ~nclients:64 ~duration:60_000 in
    [
      rr.Netload.agg.Netload.issued;
      rr.Netload.agg.Netload.completed;
      rr.Netload.agg.Netload.p99;
      rr.Netload.retries;
    ]
  in
  Alcotest.(check (list int)) "identical replay" (run ()) (run ())

let test_cluster_kill_failover () =
  let s = mk () in
  let eo = Eo.create () in
  let c = mk_cluster s eo in
  let faults = Dps_faults.install s ~seed:5L (Dps_faults.spec ()) in
  let kill_at = 90_000 in
  Cluster.schedule_kill c faults ~node:1 ~at:kill_at;
  let rr = run_fleet s c eo ~nclients:128 ~duration:240_000 in
  Alcotest.(check bool) "node 1 declared dead" true (Cluster.node_dead c 1);
  Alcotest.(check int) "three survivors" 3 (Cluster.nodes_up c);
  (match Cluster.failover_log c with
  | [ (node, t) ] ->
      Alcotest.(check int) "the dead node is node 1" 1 node;
      let bound = (2 * Cluster.default_config.Cluster.probe_interval) + 40_000 in
      Alcotest.(check bool)
        (Printf.sprintf "declared within %d cycles (took %d)" bound (t - kill_at))
        true
        (t - kill_at <= bound)
  | l -> Alcotest.failf "expected exactly one failover, got %d" (List.length l));
  Alcotest.(check bool) "ring dropped the dead node" false (Ring.is_live (Cluster.ring c) 1);
  Alcotest.(check bool) "ops rerouted to survivors" true (rr.Netload.rerouted > 0);
  Alcotest.(check bool) "fleet kept completing after the kill" true
    (rr.Netload.agg.Netload.completed > 1000);
  let v = Eo.check eo ~node_dead:(Cluster.node_dead c) in
  Alcotest.(check bool) (Format.asprintf "exactly-once: %a" Eo.pp_verdict v) true (Eo.ok v)

(* Open-loop arrivals through a multi-node router: every node serves, no
   errors, nothing left unresolved, and each set applies exactly once. *)
let test_cluster_open_loop () =
  let s = mk () in
  let eo = Eo.create () in
  let c = mk_cluster s eo in
  let base =
    Netload.spec ~nconns:4 ~set_pct:20 ~key_range:items
      ~mode:(Netload.Open { rate_mops = 5.0 }) ()
  in
  let rs = Netload.rspec ~base ~on_acked:(fun ~opid ~node -> Eo.ack eo ~opid ~node) () in
  let rr =
    Netload.run_routed s (Cluster.router c) rs ~duration:60_000
      ~stop:(fun () -> Cluster.stop c)
      ()
  in
  Alcotest.(check bool) "poisson arrivals served" true (rr.Netload.agg.Netload.completed > 20);
  Alcotest.(check int) "no errors" 0 rr.Netload.agg.Netload.errors;
  Alcotest.(check int) "nothing abandoned" 0 rr.Netload.abandoned;
  Array.iteri
    (fun n done_ ->
      Alcotest.(check bool) (Printf.sprintf "node %d served" n) true (done_ > 0))
    rr.Netload.per_node_completed;
  let v = Eo.check eo ~node_dead:(Cluster.node_dead c) in
  Alcotest.(check bool) (Format.asprintf "exactly-once: %a" Eo.pp_verdict v) true (Eo.ok v)

let test_cluster_shed_busy () =
  let s = mk () in
  let eo = Eo.create () in
  let c = mk_cluster s eo ~shed_threshold:1 in
  (* several connections per poller, so a poller mid-service sees other
     ready connections queued and the threshold trips *)
  let base = Netload.spec ~nclients:512 ~nconns:32 ~set_pct:20 ~key_range:items () in
  let rs = Netload.rspec ~base ~on_acked:(fun ~opid ~node -> Eo.ack eo ~opid ~node) () in
  let rr =
    Netload.run_routed s (Cluster.router c) rs ~duration:60_000
      ~stop:(fun () -> Cluster.stop c)
      ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "overload shed some requests (busy=%d)" rr.Netload.busy)
    true (rr.Netload.busy > 0);
  Alcotest.(check bool) "shed ops were retried to completion" true
    (rr.Netload.agg.Netload.completed > 500);
  let v = Eo.check eo ~node_dead:(Cluster.node_dead c) in
  Alcotest.(check bool)
    (Format.asprintf "no double-apply through busy retries: %a" Eo.pp_verdict v)
    true (Eo.ok v)

(* A send to a node already declared dead (owner and failover both down)
   is the one a timer still watches. These two nodes accept nothing, so no
   refusal or reply ever drains their connections: only the timer can, 60k
   cycles after each send. It closes the connection and the op retries
   once (on a fresh connection); the second timer finds the drain
   deadline passed, and the op is dropped. None of it counts as a
   timeout. *)
let test_dead_target_timer () =
  let s = mk () in
  let nets = Array.init 2 (fun _ -> Dps_net.Net.create s ()) in
  let router =
    {
      Netload.nnodes = 2;
      net_of = (fun n -> nets.(n));
      nic_of = (fun _ slot -> slot mod Dps_net.Net.nic_count nets.(0));
      node_of_key = (fun key -> key mod 2);
      node_up = (fun _ -> false);
      failover_of = (fun n -> 1 - n);
      subscribe_down = ignore;
    }
  in
  let base = Netload.spec ~nclients:8 ~nconns:4 ~key_range:64 () in
  let rr = Netload.run_routed s router (Netload.rspec ~base ()) ~duration:10_000 () in
  Alcotest.(check int) "one op per user" 8 rr.Netload.agg.Netload.issued;
  Alcotest.(check int) "none completed" 0 rr.Netload.agg.Netload.completed;
  Alcotest.(check int) "one retry per op" 8 rr.Netload.retries;
  Alcotest.(check int) "rerouted" 0 rr.Netload.rerouted;
  Alcotest.(check int) "dropped at the deadline" 8 rr.Netload.dropped;
  Alcotest.(check int) "nothing abandoned" 0 rr.Netload.abandoned;
  Alcotest.(check int) "a dead node's sends are not timeouts" 0 rr.Netload.timeouts;
  Alcotest.(check int) "six slots dialed, then redialed" 12 rr.Netload.conns_opened

(* --- memory per connection --- *)

(* Live words after a fleet-scale run of [nusers] users, each dialing its
   own connection for one request (the fleet-scale shape of the cluster
   figure's scale stage), measured while the fleet is still reachable. *)
let fleet_live_words nusers =
  let s = mk () in
  let d = Cluster.default_config in
  let cfg =
    {
      d with
      Cluster.npollers = 10;
      buckets = items;
      capacity = 2 * items;
      server =
        {
          d.Cluster.server with
          Dps_server.Server.max_conns = nusers;
          shed_threshold = 512;
        };
      net = { d.Cluster.net with Dps_net.Net.ring_lines = 8 };
    }
  in
  let c = Cluster.create s cfg in
  Cluster.populate c ~keys:(Array.init items Fun.id) ~val_lines:2;
  let duration = nusers * 122 in
  let base =
    Netload.spec ~nclients:nusers ~nconns:nusers ~key_range:items ~zipfian:false
      ~mode:(Netload.Closed { think = duration }) ()
  in
  let rr =
    Netload.run_routed s (Cluster.router c) (Netload.rspec ~base ()) ~duration
      ~stop:(fun () -> Cluster.stop c)
      ()
  in
  Alcotest.(check int) "one request per user" nusers rr.Netload.agg.Netload.completed;
  Gc.full_major ();
  let live = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity (s, c, rr));
  live

(* What an idle fleet connection keeps, with its user, its client-side
   state, its rings' directory entries and both ends' byte queues,
   measured as the slope of live words between 1024 and 2048 users: 188
   words on OCaml 5.1, and 290 when every byte queue keeps a 256 B buffer
   from its creation. The budget leaves room for a few words of runtime
   difference, not for the 100 words of those eager buffers. *)
let test_live_words_per_user () =
  let n = 1024 in
  let w1 = fleet_live_words n in
  let w2 = fleet_live_words (2 * n) in
  let per_user = float_of_int (w2 - w1) /. float_of_int n in
  if per_user > 220.0 then Alcotest.failf "%.1f live words per fleet user, budget 220" per_user

let suite =
  [
    ("ring coverage and determinism", `Quick, test_ring_coverage);
    ("ring remove stability", `Quick, test_ring_remove_stability);
    ("ring successor", `Quick, test_ring_successor);
    QCheck_alcotest.to_alcotest qcheck_ring_replay;
    QCheck_alcotest.to_alcotest qcheck_ring_add_movement;
    QCheck_alcotest.to_alcotest qcheck_ring_remove_add_roundtrip;
    ("cluster end to end", `Quick, test_cluster_end_to_end);
    ("cluster deterministic replay", `Quick, test_cluster_deterministic);
    ("node kill -> failover, exactly-once", `Quick, test_cluster_kill_failover);
    ("overload sheds busy, retries safe", `Quick, test_cluster_shed_busy);
    ("open-loop fleet over the cluster router", `Quick, test_cluster_open_loop);
    ("a send to a dead node waits out its timer", `Quick, test_dead_target_timer);
    ("live words per fleet user", `Quick, test_live_words_per_user);
  ]
  @ create_rejects_impossible
