module Sthread = Dps_sthread.Sthread
module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Net = Dps_net.Net
module Wire = Dps_net.Wire
module Prng = Dps_simcore.Prng
module Histogram = Dps_simcore.Histogram

type mode = Closed of { think : int } | Open of { rate_mops : float }

type spec = {
  nclients : int;
  nconns : int;
  set_pct : int;
  key_range : int;
  zipfian : bool;
  mode : mode;
  seed : int64;
}

(* value size of every set, in cache lines *)
let val_lines = 2

let spec ?(nclients = 1000) ?(nconns = 64) ?(set_pct = 10) ?(key_range = 16384)
    ?(zipfian = true) ?(mode = Closed { think = 4000 }) ?(seed = 42L) () =
  { nclients; nconns; set_pct; key_range; zipfian; mode; seed }

type result = {
  issued : int;
  completed : int;
  errors : int;
  hits : int;
  refused_conns : int;
  duration_cycles : int;
  throughput_mops : float;
  mean_latency : float;
  p50 : int;
  p99 : int;
  p999 : int;
}

let pp_result ppf r =
  Format.fprintf ppf
    "%8d completed (%d issued): %8.3f Mops/s  p50 %d p99 %d p99.9 %d  (%d errors, %d refused)"
    r.completed r.issued r.throughput_mops r.p50 r.p99 r.p999 r.errors r.refused_conns

(* The fleet: clients hash keys to shard nodes through a router, retry
   refused/busy/orphaned requests with capped exponential backoff + jitter,
   and fail over to the shard's successor when the cluster declares a node
   dead. A single server is the one-node router [single]. *)

type router = {
  nnodes : int;
  net_of : int -> Net.t;
  nic_of : int -> int -> int;
  node_of_key : int -> int;
  node_up : int -> bool;
  failover_of : int -> int;
  subscribe_down : (int -> unit) -> unit;
}

let single net =
  {
    nnodes = 1;
    net_of = (fun _ -> net);
    nic_of = (fun _ slot -> slot mod Net.nic_count net);
    node_of_key = (fun _ -> 0);
    node_up = (fun _ -> true);
    failover_of = Fun.id;
    subscribe_down = ignore;
  }

type rspec = {
  base : spec;  (** [nconns] is per node *)
  key_pool : int array option;
  churn_interval : int;
  on_acked : (opid:int -> node:int -> unit) option;
}

let rspec ?(base = spec ()) ?key_pool ?(churn_interval = 0) ?on_acked () =
  { base; key_pool; churn_interval; on_acked }

(* Retry policy: an outstanding request is suspect after [req_timeout]
   cycles; a logical op gets at most [max_retries] wire sends, backing off
   from [backoff_base] doubling up to [backoff_cap] cycles. *)
let req_timeout = 60_000
let max_retries = 6
let backoff_base = 2_000
let backoff_cap = 40_000

type routed_result = {
  agg : result;
  retries : int;
  rerouted : int;
  busy : int;
  timeouts : int;
  dropped : int;
  abandoned : int;
  churned : int;
  conns_opened : int;
  per_node_completed : int array;
  per_node_p99 : int array;
  goodput_timeline : int array;
  window_cycles : int;
}

type rop = {
  opid : int;
  rkind : [ `Get | `Set ];
  key : int;
  user : int;
  t0 : int;
  mutable attempts : int;  (** wire sends so far *)
  mutable resolved : bool;
  mutable timed_out : bool;
  mutable last_node : int;
  mutable on_cid : int;  (** connection-table index currently carrying it; -1 = none *)
  mutable sent_at : int;
      (** cycle of the current wire send; -1 if it went to a node already
          declared dead (a timer watches those) *)
}

(* One row per dialed connection slot: slot [s] of node [n] is row
   [cid = n * nconns + s], made at the slot's first dial and kept across
   reopens. Per-connection heap state is what bounds fleet size, so a
   slot that never dials costs one word and a byte, and a dialed one its
   row. The connection's handlers are the fleet's two, which get [cid] as
   the connection's tag. *)
type row = {
  mutable conn : Net.conn;  (** the latest (re)open *)
  mutable dec : Wire.decoder;  (** fresh on every (re)open *)
  inflight : rop Queue.t;  (** survives reopens *)
}

type ctable = {
  cnconns : int;  (** rows per node *)
  rows : row option array;
  cdead : Bytes.t;  (** '\001' = unusable, reconnect before use *)
  mutable copened : int;  (** [Net.connect] calls: first opens + reopens *)
}

let ct_make ~nnodes ~nconns =
  let n = nnodes * nconns in
  { cnconns = nconns; rows = Array.make n None; cdead = Bytes.make n '\001'; copened = 0 }

let ct_dead ct cid = Bytes.get ct.cdead cid = '\001'
let ct_node ct cid = cid / ct.cnconns

type fleet = {
  rsched : Sthread.t;
  router : router;
  rs : rspec;
  rdist : Keydist.t;
  rset_data : string;
  rstart : int;
  rhorizon : int;
  rdeadline : int;  (** past this, nothing retries *)
  rhist : Histogram.t;
  node_hist : Histogram.t array;
  table : ctable;
  crx : int -> string -> unit;  (** every connection's [rx] handler *)
  crefused : int -> unit;  (** every connection's [on_refused] handler *)
  renc : Buffer.t;  (** encode scratch, shared by every send *)
  key_prng : Prng.t;
  jitter_prng : Prng.t;
  timeline : int array;
  twindow : int;
  mutable next_opid : int;
  mutable rissued : int;
  mutable rcompleted : int;
  mutable rresolved : int;
  mutable rerrors : int;
  mutable rhits : int;
  mutable rrefused : int;
  mutable rretries : int;
  mutable rrerouted : int;
  mutable rbusy : int;
  mutable rtimeouts : int;
  mutable rdropped : int;
  mutable rchurned : int;
  node_completed : int array;
}

(* The row of a slot that has dialed. *)
let ct_row ct cid =
  match ct.rows.(cid) with Some r -> r | None -> invalid_arg "Netload: slot never dialed"

let sample_key f =
  match f.rs.key_pool with
  | Some pool -> pool.(Keydist.sample f.rdist f.key_prng mod Array.length pool)
  | None -> Keydist.sample f.rdist f.key_prng

(* Route: ring owner if up, else its failover target, else the (possibly
   stale) owner — the refusal or timeout path will retry later. *)
let target_node f key =
  let n = f.router.node_of_key key in
  if f.router.node_up n then n
  else
    let s = f.router.failover_of n in
    if f.router.node_up s then s else n

let count_timeout f op =
  if not op.timed_out then begin
    op.timed_out <- true;
    f.rtimeouts <- f.rtimeouts + 1
  end

(* A send leaves its connection (reply parsed, busy shed, or connection
   drained). If it sat there [req_timeout] cycles or more, it timed out.
   No timer is needed to see that: on a live node a timer could only
   count, because [subscribe_down] drains a node's connections the moment
   the node is declared dead. *)
let leave_conn f op =
  op.on_cid <- -1;
  if op.sent_at >= 0 && Sthread.now f.rsched - op.sent_at >= req_timeout then count_timeout f op

let record_completion f node latency =
  f.rcompleted <- f.rcompleted + 1;
  f.rresolved <- f.rresolved + 1;
  Histogram.add f.rhist latency;
  Histogram.add f.node_hist.(node) latency;
  f.node_completed.(node) <- f.node_completed.(node) + 1;
  let w = (Sthread.now f.rsched - f.rstart) / f.twindow in
  if w >= 0 && w < Array.length f.timeline then
    f.timeline.(w) <- f.timeline.(w) + 1

let rec ensure_conn f cid =
  let ct = f.table in
  if ct_dead ct cid then begin
    Bytes.set ct.cdead cid '\000';
    let node = ct_node ct cid in
    let conn =
      Net.connect (f.router.net_of node)
        ~nic:(f.router.nic_of node (cid mod ct.cnconns))
        ~tag:cid ~rx:f.crx ~on_refused:f.crefused ()
    in
    ct.copened <- ct.copened + 1;
    match ct.rows.(cid) with
    | Some r ->
        r.conn <- conn;
        r.dec <- Wire.decoder ()
    | None -> ct.rows.(cid) <- Some { conn; dec = Wire.decoder (); inflight = Queue.create () }
  end

and on_refused f cid =
  f.rrefused <- f.rrefused + 1;
  fail_conn f cid ~close:false

(* The connection is unusable (refused, or its node was declared dead):
   close it so late responses cannot double-complete, and push every
   inflight operation onto the retry path. *)
and fail_conn f cid ~close =
  let ct = f.table in
  if not (ct_dead ct cid) then begin
    Bytes.set ct.cdead cid '\001';
    let r = ct_row ct cid in
    if close then Net.close (f.router.net_of (ct_node ct cid)) r.conn;
    let orphans = Queue.fold (fun acc op -> op :: acc) [] r.inflight in
    Queue.clear r.inflight;
    List.iter
      (fun op ->
        leave_conn f op;
        retry_op f op)
      (List.rev orphans)
  end

(* Capped exponential backoff with jitter: delay in [b/2, b) where
   b = min cap (base * 2^(attempts-1)). *)
and retry_op f op =
  if not op.resolved then begin
    if op.attempts > max_retries then begin
      op.resolved <- true;
      f.rresolved <- f.rresolved + 1;
      f.rdropped <- f.rdropped + 1;
      f.rerrors <- f.rerrors + 1;
      user_next f op
    end
    else if Sthread.now f.rsched >= f.rdeadline then begin
      op.resolved <- true;
      f.rresolved <- f.rresolved + 1;
      f.rdropped <- f.rdropped + 1
    end
    else begin
      f.rretries <- f.rretries + 1;
      let b = Int.min backoff_cap (backoff_base lsl Int.min 16 (Int.max 0 (op.attempts - 1))) in
      let delay = (b / 2) + 1 + Prng.int f.jitter_prng (Int.max 1 (b / 2)) in
      Sthread.at f.rsched ~time:(Sthread.now f.rsched + delay) (fun () ->
          if not op.resolved then
            if Sthread.now f.rsched >= f.rdeadline then begin
              op.resolved <- true;
              f.rresolved <- f.rresolved + 1;
              f.rdropped <- f.rdropped + 1
            end
            else send_op f op)
    end
  end

and send_op f op =
  let node = target_node f op.key in
  let cid = (node * f.table.cnconns) + (op.user mod f.table.cnconns) in
  ensure_conn f cid;
  let r = ct_row f.table cid in
  if op.attempts > 0 && node <> op.last_node then f.rrerouted <- f.rrerouted + 1;
  op.last_node <- node;
  op.attempts <- op.attempts + 1;
  op.on_cid <- cid;
  Buffer.clear f.renc;
  (match op.rkind with
  | `Set ->
      Wire.encode_request f.renc
        (Wire.Set
           {
             key = string_of_int op.key;
             flags = op.opid;
             exptime = 0;
             data = f.rset_data;
             noreply = false;
           })
  | `Get -> Wire.encode_request f.renc (Wire.Get [ string_of_int op.key ]));
  Queue.push op r.inflight;
  Net.send (f.router.net_of node) r.conn (Buffer.contents f.renc);
  if f.router.node_up node then op.sent_at <- Sthread.now f.rsched
  else begin
    (* owner and failover both declared dead: no [subscribe_down]
       callback will drain this connection, so a timer watches it *)
    op.sent_at <- -1;
    let gen = op.attempts in
    Sthread.at f.rsched ~time:(Sthread.now f.rsched + req_timeout) (fun () ->
        on_timeout f op ~gen)
  end

(* Still on the connection [req_timeout] cycles after a send to a dead
   node (dead for good): the connection is orphaned, so drain it, which
   reroutes every inflight op including this one. Only a dead node's
   connection is ever drained on a timeout: a live node's reply will
   still arrive, and a blind retransmit on a live FIFO connection would
   double-apply. *)
and on_timeout f op ~gen =
  let cid = op.on_cid in
  if (not op.resolved) && op.attempts = gen && cid >= 0 then fail_conn f cid ~close:true

and on_rx f cid data =
  let r = ct_row f.table cid in
  let node = ct_node f.table cid in
  Wire.feed r.dec data;
  let parsing = ref true in
  while !parsing do
    match Wire.next_response r.dec with
    | Wire.Need_more -> parsing := false
    | Wire.Bad _ -> f.rerrors <- f.rerrors + 1
    | Wire.Item resp -> (
        match Queue.take_opt r.inflight with
        | None -> f.rerrors <- f.rerrors + 1
        | Some op -> (
            leave_conn f op;
            if not op.resolved then
              match resp with
              | Wire.Server_error m
                when String.length m >= 4 && String.sub m 0 4 = "busy" ->
                  (* shed under overload: the backend never saw it, so a
                     retransmit after backoff is safe *)
                  f.rbusy <- f.rbusy + 1;
                  retry_op f op
              | _ ->
                  op.resolved <- true;
                  record_completion f node (Sthread.now f.rsched - op.t0);
                  (match resp with
                  | Wire.Values vs -> f.rhits <- f.rhits + List.length vs
                  | Wire.Stored -> (
                      match (f.rs.on_acked, op.rkind) with
                      | Some cb, `Set -> cb ~opid:op.opid ~node
                      | _ -> ())
                  | Wire.Error | Wire.Client_error _ | Wire.Server_error _ ->
                      f.rerrors <- f.rerrors + 1
                  | Wire.Not_stored | Wire.Deleted | Wire.Not_found -> ());
                  user_next f op))
  done

and user_next f op =
  match f.rs.base.mode with
  | Open _ -> ()
  | Closed { think } ->
      let when_ = Sthread.now f.rsched + think in
      if when_ < f.rhorizon then
        Sthread.at f.rsched ~time:when_ (fun () -> new_op f op.user)

and new_op f user =
  if Sthread.now f.rsched < f.rhorizon then begin
    let kind = if Prng.int f.key_prng 100 < f.rs.base.set_pct then `Set else `Get in
    let op =
      {
        opid = f.next_opid;
        rkind = kind;
        key = sample_key f;
        user;
        t0 = Sthread.now f.rsched;
        attempts = 0;
        resolved = false;
        timed_out = false;
        last_node = -1;
        on_cid = -1;
        sent_at = -1;
      }
    in
    f.next_opid <- f.next_opid + 1;
    f.rissued <- f.rissued + 1;
    send_op f op
  end

(* Open-loop Poisson arrivals for connection slot [slot], mean
   inter-arrival [mean_gap] cycles, until the horizon; each arrival is a
   new op for user [slot]. *)
let rec arrivals f prng ~mean_gap slot =
  let u = 1.0 -. Prng.float prng 1.0 in
  let gap = -.mean_gap *. log u in
  let now = Sthread.now f.rsched in
  let window = f.rhorizon - now in
  (* compared in float: a gap past the window need not fit an int *)
  if window > 1 && gap < float_of_int window then
    Sthread.at f.rsched
      ~time:(now + Int.max 1 (int_of_float gap))
      (fun () ->
        new_op f slot;
        arrivals f prng ~mean_gap slot)

(* Connection churn: every [churn_interval] cycles recycle one drained
   connection (close + lazy reconnect on next use), round-robin over the
   whole cluster — connection setup/teardown keeps running under load. *)
let rec churn_tick f ~cursor =
  if Sthread.now f.rsched < f.rhorizon then begin
    let ct = f.table in
    let total = f.router.nnodes * ct.cnconns in
    let usable cid =
      (not (ct_dead ct cid))
      && Queue.is_empty (ct_row ct cid).inflight
      && f.router.node_up (ct_node ct cid)
    in
    let rec find i left =
      if left = 0 then None
      else
        let cid = i mod total in
        if usable cid then Some cid else find (i + 1) (left - 1)
    in
    (match find cursor total with
    | Some cid ->
        Net.close (f.router.net_of (ct_node ct cid)) (ct_row ct cid).conn;
        Bytes.set ct.cdead cid '\001';
        f.rchurned <- f.rchurned + 1
    | None -> ());
    Sthread.at f.rsched
      ~time:(Sthread.now f.rsched + f.rs.churn_interval)
      (fun () -> churn_tick f ~cursor:(cursor + 1))
  end

let run_routed sched router rs ~duration ?(stop = fun () -> ()) () =
  let sp = rs.base in
  (match sp.mode with
  | Open { rate_mops } when not (Float.is_finite rate_mops && rate_mops > 0.) ->
      invalid_arg "Netload.run_routed: open-loop rate_mops must be positive and finite"
  | Open _ | Closed _ -> ());
  let start = Sthread.now sched in
  let horizon = start + duration in
  let grace = (10 * Net.link_latency) + req_timeout + 20_000 in
  let master = Prng.create sp.seed in
  let twindow = Int.max 1 (duration / 32) in
  let rec f =
    {
      rsched = sched;
      router;
      rs;
      rdist =
        (if sp.zipfian then Keydist.zipf ~range:sp.key_range ()
         else Keydist.uniform ~range:sp.key_range);
      rset_data = String.make (val_lines * 64) 'x';
      rstart = start;
      rhorizon = horizon;
      rdeadline = horizon + grace;
      rhist = Histogram.create ();
      node_hist = Array.init router.nnodes (fun _ -> Histogram.create ());
      table = ct_make ~nnodes:router.nnodes ~nconns:sp.nconns;
      crx = (fun cid data -> on_rx f cid data);
      crefused = (fun cid -> on_refused f cid);
      renc = Buffer.create 256;
      key_prng = Prng.split master;
      jitter_prng = Prng.split master;
      timeline = Array.make ((duration / twindow) + 1) 0;
      twindow;
      next_opid = 1;
      rissued = 0;
      rcompleted = 0;
      rresolved = 0;
      rerrors = 0;
      rhits = 0;
      rrefused = 0;
      rretries = 0;
      rrerouted = 0;
      rbusy = 0;
      rtimeouts = 0;
      rdropped = 0;
      rchurned = 0;
      node_completed = Array.make router.nnodes 0;
    }
  in
  router.subscribe_down (fun node ->
      for s = 0 to f.table.cnconns - 1 do
        fail_conn f ((node * f.table.cnconns) + s) ~close:true
      done);
  (match sp.mode with
  | Closed { think } ->
      for u = 0 to sp.nclients - 1 do
        let offset =
          if think > 0 then Prng.int f.jitter_prng think else Prng.int f.jitter_prng 64
        in
        Sthread.at sched ~time:(start + 1 + offset) (fun () -> new_op f u)
      done
  | Open { rate_mops } ->
      (* a third stream, split after the key and jitter streams, so the
         closed-loop streams are the same with or without it *)
      let prng = Prng.split master in
      let ghz = (Machine.topology (Sthread.machine sched)).Topology.ghz in
      let ops_per_cycle = rate_mops *. 1e6 /. (ghz *. 1e9) in
      let mean_gap = float_of_int sp.nconns /. ops_per_cycle in
      for slot = 0 to sp.nconns - 1 do
        arrivals f prng ~mean_gap slot
      done);
  if rs.churn_interval > 0 then
    Sthread.at sched ~time:(start + rs.churn_interval) (fun () -> churn_tick f ~cursor:0);
  Sthread.at sched ~time:(horizon + grace) (fun () -> stop ());
  Sthread.run sched;
  (* a send still on its connection never got an answer: it timed out *)
  Array.iter (function Some r -> Queue.iter (count_timeout f) r.inflight | None -> ()) f.table.rows;
  let seconds = Machine.cycles_to_seconds (Sthread.machine sched) duration in
  {
    agg =
      {
        issued = f.rissued;
        completed = f.rcompleted;
        errors = f.rerrors;
        hits = f.rhits;
        refused_conns = f.rrefused;
        duration_cycles = Sthread.now sched - start;
        throughput_mops =
          (if f.rcompleted = 0 then 0.0 else float_of_int f.rcompleted /. seconds /. 1e6);
        mean_latency = Histogram.mean f.rhist;
        p50 = Histogram.percentile f.rhist 0.50;
        p99 = Histogram.percentile f.rhist 0.99;
        p999 = Histogram.percentile f.rhist 0.999;
      };
    retries = f.rretries;
    rerouted = f.rrerouted;
    busy = f.rbusy;
    timeouts = f.rtimeouts;
    dropped = f.rdropped;
    abandoned = f.rissued - f.rresolved;
    churned = f.rchurned;
    conns_opened = f.table.copened;
    per_node_completed = Array.copy f.node_completed;
    per_node_p99 = Array.map (fun h -> Histogram.percentile h 0.99) f.node_hist;
    goodput_timeline = f.timeline;
    window_cycles = twindow;
  }
