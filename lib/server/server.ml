module Sthread = Dps_sthread.Sthread
module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Net = Dps_net.Net
module Wire = Dps_net.Wire
module Variants = Dps_memcached.Variants
module Obs = Dps_obs.Obs

let obs_span = Sthread.obs_span

type config = {
  npollers : int;
  max_conns : int;
  park_max : int;
  acceptor_hw : int option;
  shed_threshold : int;
  front_cache : int;
}

let default_config =
  {
    npollers = 40;
    max_conns = 1024;
    park_max = 16_000;
    acceptor_hw = None;
    shed_threshold = 0;
    front_cache = 0;
  }

(* Max requests served per poller service round. *)
let batch_limit = 16

(* Max bytes drained per [Net.recv] call. *)
let recv_chunk = 2048

(* Value bytes served on a hit: two cache lines. *)
let payload = String.make (2 * 64) 'v'

type stats = {
  mutable conns : int;
  mutable requests : int;
  mutable gets : int;
  mutable lookups : int;
  mutable hits : int;
  mutable sets : int;
  mutable dels : int;
  mutable bad_requests : int;
  mutable batches : int;
  mutable parks : int;
  mutable shed : int;
  mutable closed : int;
}

type sconn = {
  c : Net.conn;
  dec : Wire.decoder;
  mutable queued : bool;
  mutable dead : bool;  (* close observed and slot released; count once *)
}

type poller = {
  idx : int;
  hw : int;
  socket : int;
  mutable tid : int;  (** simulated thread id, known once the poller runs *)
  ready : sconn Queue.t;
  out : Buffer.t;
      (* response scratch, shared by every connection this poller serves: a
         service round drains it before returning, and rounds never
         interleave within a poller, so one buffer replaces one-per-conn —
         the difference between 40 buffers and 250k at fleet scale *)
  fc : Frontcache.t option;  (* per-poller front cache; None when disabled *)
}

type t = {
  sched : Sthread.t;
  net : Net.t;
  backend : Variants.t;
  cfg : config;
  pollers : poller array;
  by_socket : poller list array;
  rr : int array;  (** per-socket round-robin cursor *)
  mutable acceptor_tid : int;
  mutable stopping : bool;
  st : stats;
}

let stats t = t.st

let fc_stats t =
  let acc = Frontcache.zero_stats () in
  Array.iter
    (fun p ->
      match p.fc with
      | Some fc -> Frontcache.add_stats ~into:acc (Frontcache.stats fc)
      | None -> ())
    t.pollers;
  acc

let front_cache_on t = Array.exists (fun p -> p.fc <> None) t.pollers

let wake_poller t p = if p.tid >= 0 then ignore (Sthread.unpark t.sched ~tid:p.tid)

let enqueue t p sc =
  if (not sc.queued) && not sc.dead then begin
    sc.queued <- true;
    Queue.push sc p.ready;
    wake_poller t p
  end

(* Route one parsed request into the backend and append its response. *)
let handle t p req =
  let out r = Wire.encode_response p.out r in
  t.st.requests <- t.st.requests + 1;
  match req with
  | Wire.Get keys ->
      t.st.gets <- t.st.gets + 1;
      let vs =
        List.filter_map
          (fun k ->
            match int_of_string_opt k with
            | None -> None
            | Some key ->
                t.st.lookups <- t.st.lookups + 1;
                let found =
                  match p.fc with
                  | Some fc ->
                      Frontcache.lookup fc key ~fetch:(fun () -> t.backend.Variants.get key)
                  | None -> t.backend.Variants.get key
                in
                if found then begin
                  t.st.hits <- t.st.hits + 1;
                  Some { Wire.vkey = k; vflags = 0; vdata = payload }
                end
                else None)
          keys
      in
      out (Wire.Values vs)
  | Wire.Set { key; data; noreply; flags; _ } -> (
      match int_of_string_opt key with
      | Some key ->
          t.st.sets <- t.st.sets + 1;
          let val_lines = Int.max 1 ((String.length data + 63) / 64) in
          (* drop our own cached entry before forwarding: the delegated
             write lands asynchronously, but a get on this same poller must
             already miss and go through the (FIFO-ordered) backend path *)
          (match p.fc with Some fc -> Frontcache.invalidate fc key | None -> ());
          (* the flags field doubles as a client-chosen operation tag for
             apply-tracking backends (exactly-once ledger in cluster mode) *)
          (match t.backend.Variants.set_tagged with
          | Some set_tagged -> set_tagged ~key ~val_lines ~tag:flags
          | None -> t.backend.Variants.set ~key ~val_lines);
          if not noreply then out Wire.Stored
      | None ->
          t.st.bad_requests <- t.st.bad_requests + 1;
          if not noreply then out (Wire.Client_error "bad key"))
  | Wire.Delete { key; noreply } -> (
      match int_of_string_opt key with
      | Some key ->
          t.st.dels <- t.st.dels + 1;
          (match p.fc with Some fc -> Frontcache.invalidate fc key | None -> ());
          let found = t.backend.Variants.del key in
          if not noreply then out (if found then Wire.Deleted else Wire.Not_found)
      | None ->
          t.st.bad_requests <- t.st.bad_requests + 1;
          if not noreply then out (Wire.Client_error "bad key"))

(* The peer closed: count it once and release the connection's slot (the
   acceptor admits against live = accepted - closed). The sconn simply
   stops being re-enqueued; its decoder and buffers go with it. *)
let release t sc =
  if not sc.dead then begin
    sc.dead <- true;
    t.st.closed <- t.st.closed + 1
  end

(* One service round for a readable connection: drain bytes, serve up to
   [batch_limit] requests, write the batched response. Here and in
   [service], a span is opened only under [Obs.on ()]: its closure and
   arguments would otherwise be allocated on every call. *)
let serve_conn t p sc =
  let data =
    if Obs.on () then obs_span "srv.rx" (fun () -> Net.recv t.net sc.c ~max:recv_chunk)
    else Net.recv t.net sc.c ~max:recv_chunk
  in
  Wire.feed sc.dec data;
  (* bounded-queue load shedding: when this poller's ready backlog exceeds
     the threshold, answer SERVER_ERROR busy without touching the backend —
     clients back off and retry instead of queueing into unbounded latency *)
  let overloaded =
    t.cfg.shed_threshold > 0 && Queue.length p.ready >= t.cfg.shed_threshold
  in
  let served = ref 0 in
  let parsing = ref true in
  while !parsing && !served < batch_limit do
    let next =
      if Obs.on () then obs_span "srv.parse" (fun () -> Wire.next_request sc.dec)
      else Wire.next_request sc.dec
    in
    match next with
    | Wire.Need_more -> parsing := false
    | Wire.Bad { msg = _; reply } ->
        t.st.bad_requests <- t.st.bad_requests + 1;
        Wire.encode_response p.out reply;
        incr served
    | Wire.Item req when overloaded ->
        t.st.shed <- t.st.shed + 1;
        let noreply =
          match req with
          | Wire.Set { noreply; _ } | Wire.Delete { noreply; _ } -> noreply
          | Wire.Get _ -> false
        in
        if not noreply then Wire.encode_response p.out (Wire.Server_error "busy");
        incr served
    | Wire.Item req ->
        if Obs.on () then obs_span "srv.serve" (fun () -> handle t p req) else handle t p req;
        incr served
  done;
  if Buffer.length p.out > 0 then begin
    t.st.batches <- t.st.batches + 1;
    if Obs.on () then
      obs_span ~args:[ ("bytes", Obs.A_int (Buffer.length p.out)) ] "srv.tx" (fun () ->
          Net.reply t.net sc.c (Buffer.contents p.out))
    else Net.reply t.net sc.c (Buffer.contents p.out);
    Buffer.clear p.out
  end;
  (* More buffered bytes, or a full batch with frames still in the decoder:
     take another round (after peers get their turn). A partial frame alone
     parks until more bytes arrive. *)
  if Net.recv_ready sc.c > 0 || (!served >= batch_limit && Wire.buffered sc.dec > 0)
  then enqueue t p sc

let service t p sc =
  if Net.is_closed sc.c then release t sc
  else if Obs.on () then
    obs_span ~args:[ ("conn", Obs.A_int (Net.conn_id sc.c)) ] "srv.service" (fun () ->
        serve_conn t p sc)
  else serve_conn t p sc

let poller_body t p () =
  p.tid <- Sthread.self_id ();
  if Obs.tracing_on () then
    Obs.thread_name ~tid:p.tid (Printf.sprintf "srv-poller %d (s%d)" p.idx p.socket);
  t.backend.Variants.attach p.idx;
  while not t.stopping do
    match Queue.take_opt p.ready with
    | Some sc ->
        sc.queued <- false;
        service t p sc
    | None ->
        (* Nothing readable: park until a connection turns readable. A DPS
           poller cannot block unconditionally — peers' delegated
           operations queue on its partition's rings whether or not it has
           connections of its own — so its idle duty serves them and parks
           only while they are empty, until a publish rings its doorbell. *)
        let parked =
          match t.backend.Variants.idle with
          | None ->
              Sthread.park ();
              true
          | Some idle -> obs_span "srv.poll" idle = 0
        in
        if parked then t.st.parks <- t.st.parks + 1
  done;
  t.backend.Variants.finish ()

let acceptor_body t () =
  t.acceptor_tid <- Sthread.self_id ();
  if Obs.tracing_on () then Obs.thread_name ~tid:t.acceptor_tid "srv-acceptor";
  let continue = ref true in
  while !continue do
    match Net.accept t.net with
    | None -> continue := false
    | Some c ->
        if t.stopping || t.st.conns - t.st.closed >= t.cfg.max_conns then
          Net.refuse t.net c
        else begin
          t.st.conns <- t.st.conns + 1;
          let socket = Net.socket_of_conn c in
          (* place on the NIC's socket so ring and partition traffic stay
             local; fall back to global round-robin if that socket has no
             poller *)
          let candidates =
            match t.by_socket.(socket) with [] -> Array.to_list t.pollers | ps -> ps
          in
          let n = List.length candidates in
          let p = List.nth candidates (t.rr.(socket) mod n) in
          t.rr.(socket) <- t.rr.(socket) + 1;
          let sc = { c; dec = Wire.decoder (); queued = false; dead = false } in
          Net.set_on_readable c (fun () -> enqueue t p sc);
          if Net.recv_ready c > 0 then enqueue t p sc
        end
  done

let start sched net ~backend cfg =
  let m = Sthread.machine sched in
  let topo = Machine.topology m in
  let pollers =
    Array.init cfg.npollers (fun i ->
        let hw = backend.Variants.client_hw i in
        let socket = Topology.socket_of_thread topo hw in
        (* the front cache needs a versioned backend to validate against;
           without one (or with front_cache = 0) the fast path stays off
           and the charge stream is untouched — the allocate-last rule *)
        let fc =
          match (cfg.front_cache > 0, backend.Variants.version_of) with
          | true, Some version_of ->
              Some
                (Frontcache.create ~entries:cfg.front_cache
                   ~alloc:(fun ~lines -> Machine.alloc m (Machine.On_node socket) ~lines)
                   ~version_of ())
          | _ -> None
        in
        { idx = i; hw; socket; tid = -1; ready = Queue.create (); out = Buffer.create 256; fc })
  in
  let by_socket = Array.make topo.Topology.sockets [] in
  Array.iter (fun p -> by_socket.(p.socket) <- by_socket.(p.socket) @ [ p ]) pollers;
  let t =
    {
      sched;
      net;
      backend;
      cfg;
      pollers;
      by_socket;
      rr = Array.make topo.Topology.sockets 0;
      acceptor_tid = -1;
      stopping = false;
      st =
        {
          conns = 0;
          requests = 0;
          gets = 0;
          lookups = 0;
          hits = 0;
          sets = 0;
          dels = 0;
          bad_requests = 0;
          batches = 0;
          parks = 0;
          shed = 0;
          closed = 0;
        };
    }
  in
  Array.iter (fun p -> Sthread.spawn sched ~hw:p.hw (poller_body t p)) pollers;
  (* acceptor on the machine's last hardware thread by default: a second
     hyperthread the placement rule leaves free below full occupancy, and it
     parks (releasing the core) whenever no connection is pending. Cluster
     mode overrides the placement so co-hosted nodes don't collide. *)
  let acceptor_hw =
    match cfg.acceptor_hw with Some hw -> hw | None -> Topology.nthreads topo - 1
  in
  Sthread.spawn sched ~hw:acceptor_hw (acceptor_body t);
  t

let poller_tids t =
  Array.to_list t.pollers |> List.map (fun p -> p.tid) |> List.filter (fun tid -> tid >= 0)

let acceptor_tid t = t.acceptor_tid

let pending_conns t =
  Array.fold_left (fun acc p -> acc + Queue.length p.ready) 0 t.pollers

let stop t =
  if not t.stopping then begin
    t.stopping <- true;
    Net.unlisten t.net;
    Array.iter (fun p -> wake_poller t p) t.pollers
  end

let register_obs ?(labels = []) t reg =
  let module R = Dps_obs.Registry in
  let g name f = R.gauge_fn reg name ~labels (fun () -> float_of_int (f t.st)) in
  g "srv.conns" (fun s -> s.conns);
  g "srv.requests" (fun s -> s.requests);
  g "srv.gets" (fun s -> s.gets);
  g "srv.lookups" (fun s -> s.lookups);
  g "srv.hits" (fun s -> s.hits);
  g "srv.sets" (fun s -> s.sets);
  g "srv.dels" (fun s -> s.dels);
  g "srv.bad_requests" (fun s -> s.bad_requests);
  g "srv.batches" (fun s -> s.batches);
  g "srv.parks" (fun s -> s.parks);
  g "srv.shed" (fun s -> s.shed);
  g "srv.closed" (fun s -> s.closed);
  if front_cache_on t then begin
    let fg name help f =
      R.gauge_fn reg name ~labels ~help (fun () -> float_of_int (f (fc_stats t)))
    in
    fg "srv.fc_hits" "front-cache hits" (fun s -> s.Frontcache.hits);
    fg "srv.fc_misses" "front-cache misses" (fun s -> s.Frontcache.misses);
    fg "srv.fc_stale" "version-mismatch refetches" (fun s -> s.Frontcache.stale);
    fg "srv.fc_admits" "front-cache installs" (fun s -> s.Frontcache.admits);
    fg "srv.fc_invals" "poller self-invalidations" (fun s -> s.Frontcache.invals)
  end
