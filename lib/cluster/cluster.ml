module Sthread = Dps_sthread.Sthread
module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Net = Dps_net.Net
module Server = Dps_server.Server
module Variants = Dps_memcached.Variants
module Netload = Dps_workload.Netload
module Faults = Dps_faults
module Obs = Dps_obs.Obs

type config = {
  nnodes : int;
  npollers : int;  (** per node; also the node's DPS client count *)
  buckets : int;  (** per node *)
  capacity : int;  (** per node *)
  probe_interval : int;
  server : Server.config;  (** template; npollers/acceptor placement overridden *)
  net : Net.config;  (** per-node network front-end template *)
}

let default_config =
  {
    nnodes = 4;
    npollers = 8;
    buckets = 4096;
    capacity = 1 lsl 16;
    probe_interval = 25_000;
    server = { Server.default_config with max_conns = 512; shed_threshold = 24 };
    net = Net.default_config;
  }

type node = {
  id : int;
  socket : int;
  net : Net.t;
  server : Server.t;
  backend : Variants.t;
  mutable up : bool;
  mutable died_at : int;  (** simulated time the probe declared it dead; -1 *)
}

type t = {
  sched : Sthread.t;
  cfg : config;
  ring : Ring.t;
  nodes : node array;
  mutable down_subs : (int -> unit) list;
  mutable stopped : bool;
  mutable failover_log : (int * int) list;  (** (node, declared-dead time), newest first *)
}

(* Per-node placement: node [id] owns a slice of one socket. Pollers take
   the first hyperthread of [npollers] consecutive cores (nodes stacked on
   the same socket take the next slice); the acceptor takes the second
   hyperthread of the node's last core, so co-hosted nodes never collide
   and the paper's placement invariant (delegation stays socket-local)
   holds per node. *)
let node_placement topo ~nnodes ~npollers id =
  let sockets = topo.Topology.sockets in
  let cps = topo.Topology.cores_per_socket in
  let tpc = topo.Topology.threads_per_core in
  let socket = id mod sockets in
  let layer = id / sockets in
  if npollers > cps then
    invalid_arg "Cluster: npollers per node exceeds cores per socket";
  if (layer + 1) * npollers > cps && nnodes > sockets then
    invalid_arg "Cluster: too many nodes for this topology";
  let core j = (layer * npollers) + j in
  let pollers = Array.init npollers (fun j -> ((socket * cps) + core j) * tpc) in
  let acceptor = ((((socket * cps) + core (npollers - 1)) * tpc) + min 1 (tpc - 1)) in
  (socket, pollers, acceptor)

let mk_backend sched (cfg : config) ~placement ~on_apply =
  (* a front-cached server needs per-key versions to validate against; 4x
     the bucket count keeps version-slot aliasing (false invalidation
     only) rare without growing the table's line footprint much *)
  let versions = if cfg.server.Server.front_cache > 0 then 4 * cfg.buckets else 0 in
  Variants.dps_mc sched ~serving:Dps.self_healing ~batch:4 ~versions ~placement
    ~on_set_applied:on_apply ~nclients:cfg.npollers ~locality_size:4 ~buckets:cfg.buckets
    ~capacity:cfg.capacity ()

let create sched ?(on_set_applied = fun ~node:_ ~tag:_ -> ()) cfg =
  if cfg.nnodes < 2 then invalid_arg "Cluster.create: need at least 2 nodes";
  if cfg.npollers < 1 then invalid_arg "Cluster.create: npollers < 1";
  if cfg.probe_interval < 1 then invalid_arg "Cluster.create: probe_interval < 1";
  let topo = Machine.topology (Sthread.machine sched) in
  let nodes =
    Array.init cfg.nnodes (fun id ->
        let socket, pollers, acceptor_hw =
          node_placement topo ~nnodes:cfg.nnodes ~npollers:cfg.npollers id
        in
        let net = Net.create sched ~config:cfg.net () in
        let backend =
          mk_backend sched cfg ~placement:pollers
            ~on_apply:(fun tag -> on_set_applied ~node:id ~tag)
        in
        let server =
          Server.start sched net ~backend
            {
              cfg.server with
              npollers = cfg.npollers;
              acceptor_hw = Some acceptor_hw;
            }
        in
        { id; socket; net; server; backend; up = true; died_at = -1 })
  in
  {
    sched;
    cfg;
    ring = Ring.create ~nnodes:cfg.nnodes;
    nodes;
    down_subs = [];
    stopped = false;
    failover_log = [];
  }

let node t id = t.nodes.(id)
let node_count t = Array.length t.nodes
let nodes_up t = Array.fold_left (fun acc n -> if n.up then acc + 1 else acc) 0 t.nodes
let node_dead t id = not t.nodes.(id).up
let failover_log t = List.rev t.failover_log
let ring t = t.ring
let on_node_down t cb = t.down_subs <- cb :: t.down_subs

(* Gossip-free death detection: a node is dead when its own DPS watchdog
   says every poller (= DPS client) vanished without client_done — there
   is nobody left to serve or accept, so no heartbeat protocol is needed;
   the backend's crash accounting already is the heartbeat. *)
let node_is_dead t nd =
  match nd.backend.Variants.health with
  | None -> false
  | Some health ->
      let h = health () in
      h.Dps.crashes >= t.cfg.npollers
      || Array.for_all Fun.id h.Dps.dead_partitions

(* Declare [nd] dead: replay the hash ring (its keys remap onto the
   surviving nodes — the failover promotion), stop its server shell so
   pending and future connection attempts are refused instead of hanging,
   and tell subscribers (client fleets drain orphaned connections and
   reroute their inflight ops). *)
let mark_down t nd =
  if nd.up then begin
    nd.up <- false;
    nd.died_at <- Sthread.now t.sched;
    t.failover_log <- (nd.id, nd.died_at) :: t.failover_log;
    Ring.remove t.ring nd.id;
    Server.stop nd.server;
    if Obs.tracing_on () then
      Obs.instant
        ~tid:(Obs.pseudo_tid ~kind:3 nd.id)
        ~now:(Sthread.now t.sched) ~cat:"cluster"
        (Printf.sprintf "cluster.node_down %d" nd.id);
    List.iter (fun cb -> cb nd.id) t.down_subs
  end

let rec probe t =
  if not t.stopped then begin
    Array.iter (fun nd -> if nd.up && node_is_dead t nd then mark_down t nd) t.nodes;
    Sthread.at t.sched
      ~time:(Sthread.now t.sched + t.cfg.probe_interval)
      (fun () -> probe t)
  end

let start_probe t = Sthread.at t.sched ~time:(Sthread.now t.sched + 1) (fun () -> probe t)

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    Array.iter (fun nd -> Server.stop nd.server) t.nodes
  end

(* Kill a whole node mid-run through the fault layer: every poller plus
   the acceptor crashes at [at]. Tids are resolved at fire time because
   pollers learn their tid only once they run. *)
let schedule_kill t faults ~node:id ~at =
  let nd = t.nodes.(id) in
  Faults.schedule_kill faults ~at ~tids:(fun () ->
      let tids = Server.poller_tids nd.server in
      let a = Server.acceptor_tid nd.server in
      if a >= 0 then a :: tids else tids)

let populate t ~keys ~val_lines =
  (* group keys by ring owner, one populate call per node *)
  let per = Array.make (Array.length t.nodes) [] in
  Array.iter
    (fun key ->
      let n = Ring.lookup t.ring key in
      per.(n) <- key :: per.(n))
    keys;
  Array.iteri
    (fun id ks ->
      if ks <> [] then
        t.nodes.(id).backend.Variants.populate ~keys:(Array.of_list (List.rev ks)) ~val_lines)
    per

let router t =
  {
    Netload.nnodes = Array.length t.nodes;
    net_of = (fun id -> t.nodes.(id).net);
    nic_of = (fun id _slot -> t.nodes.(id).socket);
    node_of_key = (fun key -> Ring.lookup t.ring key);
    node_up = (fun id -> t.nodes.(id).up);
    failover_of = (fun id -> Ring.successor t.ring id);
    subscribe_down = on_node_down t;
  }

let register_obs t reg =
  let module R = Dps_obs.Registry in
  Array.iter
    (fun nd ->
      let labels = [ ("node", string_of_int nd.id) ] in
      R.gauge_fn reg ~labels ~help:"1 while the node serves, 0 after failover" "cluster.up"
        (fun () -> if nd.up then 1.0 else 0.0);
      R.gauge_fn reg ~labels ~help:"simulated time the probe declared the node dead"
        "cluster.died_at" (fun () -> float_of_int nd.died_at);
      Server.register_obs ~labels nd.server reg;
      Net.register_obs ~labels nd.net reg;
      match nd.backend.Variants.register_obs with
      | Some f -> f ~labels reg
      | None -> ())
    t.nodes;
  R.gauge_fn reg ~help:"live nodes" "cluster.nodes_up" (fun () ->
      float_of_int (nodes_up t))
