module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Spinlock = Dps_sync.Spinlock
module Cna = Dps_sync.Cna
module Obs = Dps_obs.Obs

let obs_span = Sthread.obs_span

type partition_info = { pid : int; node : int; alloc : Alloc.t }

(* Test-only mutation (lib/check self-test): when set, the server's
   completion publish is a plain store instead of a releasing one, so the
   reply hand-off loses its happens-before edge. *)
let failpoint_skip_completion_fence = ref false

(* Test-only mutation (lib/check self-test): when set, flushing a staged
   batch silently drops its last asynchronous operation — the accounting
   oracle must catch the lost update. *)
let failpoint_drop_batch_flush = ref false

(* Test-only mutation (lib/check self-test): when set, a mode transition's
   drain phase abandons the in-flight ring slots instead of serving them —
   awaited entries are declared lost, fire-and-forget entries silently
   vanish. The accounting oracle must catch the lost updates. *)
let failpoint_stuck_transition = ref false

(* A message line carries the header word (toggle, count, claim) plus up to
   seven 8-byte operation descriptors, so a batch still moves as exactly one
   cache line — larger batches would reintroduce the per-line coherence
   cost batching exists to amortize. *)
let max_batch = 7

(* Per-delegation runtime work in cycles — calibration constants documented
   in EXPERIMENTS.md: argument marshalling on the sender, request
   unmarshalling and dispatch on the server. Local calls pay a quarter of
   the dispatch cost (the §5.2 remark about interposition overhead on
   local operations). *)
let marshal_cost = 100
let dispatch_cost = 250

(* One operation inside a multi-op message. An entry is *claimed* (its op
   taken) before the dispatch work is charged, so a second server never
   double-executes and a crash mid-dispatch leaves a recognisably lost
   entry. [eret]/[edone] buffer the reply until the whole batch publishes;
   [ecancelled] marks an entry whose sender gave up (a tombstone, discarded
   with the batch); [ecell] points back at the sender's completion record. *)
type entry = {
  mutable eop : (unit -> int) option;
  mutable eret : int;
  mutable edone : bool;
  mutable ecancelled : bool;
  mutable ecell : remote option;
}

(* One single-cache-line message, as in §4.2, generalised to [count]
   operations: toggle bit, per-entry descriptors, return values. The toggle
   is set by the sender when the batch is published and cleared by the
   partition when every reply is ready — one releasing store acks the whole
   batch. [claim] is the serving thread's id while the batch is in flight,
   so recovery code can tell "in progress" from "lost with its server". *)
and msg = {
  maddr : int;
  mutable toggle : bool;
  mutable count : int;
  mutable claim : int;
  entries : entry array;
}

(* Sender-side life cycle of one delegated operation. [Staged]: coalescing
   in the sender's per-partition staging buffer, not yet visible to the
   partition. [Flushed]: published as entry [i] of a ring message.
   [Done]/[Lost]: the server filled the cell at batch publish (or a
   recovery path declared the operation lost and the sender must
   re-issue). *)
and rstate = Staged of stage | Flushed of msg * int | Done of int | Lost

and remote = {
  mutable state : rstate;
  mutable pid : int;
  mutable fresh : msg option;
      (* the message line holding a completion the sender has not read yet:
         the server fills the cell when it publishes (its stores are
         visible at issue), but the *sender* still pays the line transfer
         that fetches the reply — the pickup read — on its next
         observation. Cleared by every charged poll of the line. *)
  mutable reissue : unit -> unit;
      (* re-route and re-send the same operation into this same record;
         used after partition failover or a crashed server. Recomputes the
         namespace lookup, so a retargeted bucket lands on its new owner. *)
  mutable obs_id : int;
      (* async trace-span id following this delegation across threads
         (issue -> sent -> dispatch -> completion pickup); 0 when tracing
         was off at issue, and cleared once the completion is observed *)
  mutable issued_at : int;
      (* issue time, the adaptive controller's issue->done latency signal;
         -1 when adaptation is off or once the latency has been recorded *)
  mutable deadline : int;
      (* self-healing escalation deadline: -1 until the first observation
         arms it, re-armed by every escalation and re-issue; [max_int]
         when self-healing is off *)
}

(* Hierarchical aggregation (the batching analogue of the paper's §4.2
   single-line messages): operations bound for one remote partition
   accumulate in a staging line allocated on the *sender's* socket, and
   cross the interconnect as a group when the batch fills or ages out.
   The stage is strictly thread-private — owner = flusher = awaiter — so
   it needs no synchronization and no recovery protocol of its own. *)
and stage = {
  spid : int;
  saddr : int;
  sops : (unit -> int) option array;
  scells : remote option array;
  mutable sn : int;
  mutable sopened : int;  (* time the oldest staged op arrived *)
}

type completion = Local of int | Remote of remote

(* A parked server's doorbell. A server whose rings hold nothing arms its
   bell, points each of those rings at it and parks with no timer; a
   publish into one of them rings the bell, which disarms it and unparks
   [bsid]. [no_bell] is never armed. *)
type bell = { bsid : int; mutable armed : bool }

let no_bell = { bsid = -1; armed = false }

(* A ring of messages for one (client, partition) pair, allocated on the
   partition's NUMA node. The client owns [send_idx], the serving peer owns
   [recv_idx]; the toggle bit replaces head/tail comparison. [rlock] exists
   only under a [Shared] serving policy: whoever else serves the ring
   serializes with its peer through it, "rarely contended" as the paper
   notes. *)
type ring = {
  slots : msg array;
  mutable send_idx : int;
  mutable recv_idx : int;
  rlock : Spinlock.t option;
  (* published-but-unserved count: an occupancy hint (host metadata, like
     [pending]) that lets mode transitions and direct holders skip the
     charged lock probe on rings that are empty anyway — the analogue of a
     per-ring occupancy byte a real implementation would co-locate with
     the partition's metadata *)
  mutable rpending : int;
  mutable bell : bell;  (* the last server to park on this ring *)
}

type 'a partition = { info : partition_info; data : 'a; rings : ring array (* per client *) }

type cstate = Issuing | Done_issuing | Gone

type client = {
  sid : int;  (* simulated thread id *)
  tid : int;  (* client slot, in [0, nclients) *)
  my_pid : int;
  mutable served : ring array;
      (* my serving share of [my_pid]'s rings; grows when this client
         adopts an exiting peer's share *)
  mutable cursor : int;  (* round-robin scan position, for serving fairness *)
  mutable cstate : cstate;
  mutable flushing : bool;  (* re-entrancy guard: flush → serve → flush *)
  bell : bell;  (* armed while parked in [poll] *)
}

(* Per-partition access mode (adaptive delegation). [Delegated] is the
   paper's ring protocol; [Direct] has remote clients bypass the rings and
   serialize on the partition's CNA lock; [Draining] is the transition
   window — clients already route direct (and help drain) while the
   controller retires the published ring backlog. The host-side [modes]
   array is the truth (single writer: the controller); the charged
   [mode_addr] line models the read-mostly mode word clients re-check on
   every remote issue. *)
type mode = Delegated | Draining | Direct

(* Who may serve a ring, and when (the liveness policy; see dps.mli) *)
type serving =
  | Owner
  | Shared of { heal_after : int option; adaptive : [ `Delegated | `Direct ] option }

let default_heal_after = 50_000
let self_healing = Shared { heal_after = Some default_heal_after; adaptive = None }
let pollers = Shared { heal_after = None; adaptive = None }

type health = {
  pending_depth : int array;  (** per partition: delegations queued, unserved *)
  dead_partitions : bool array;
  takeovers : int;  (** foreign serves of a stuck partition's rings *)
  adoptions : int;  (** serving shares handed to a live peer *)
  retries : int;  (** operations re-issued after loss *)
  failovers : int;  (** partitions retired and retargeted *)
  crashes : int;  (** clients that vanished without [client_done] *)
  lock_breaks : int;  (** ring locks reclaimed from dead holders *)
}

type 'a t = {
  sched : Sthread.t;
  partitions : 'a partition array;
  nclients : int;
  locality_size : int;
  hash : int -> int;
  check_budget : int;
  serving : serving;
  batch : int;
  batch_age : int;
  stages : stage array array;  (* [tid].(pid); empty when batch = 1 *)
  placement : int array;
  clients : (int, client) Hashtbl.t;  (* simulated thread id -> client *)
  members : client list array;  (* per partition: clients ever attached *)
  dead_tids : (int, unit) Hashtbl.t;  (* every retired simulated thread *)
  dead : bool array;  (* partitions with no live member left *)
  last_served : int array;  (* per partition *)
  pending : int array;  (* per partition: sent - (served + discarded) *)
  (* the flat namespace of the paper's create(): hash(key) mod ns_sz
     selects a bucket, whose entry names the owning partition. One charged
     line per 8 entries; rebalancing rewrites entries. *)
  ns_table : int array;
  ns_base : int;
  mutable remaining : int;
  mutable n_delegated : int;
  mutable n_local : int;
  mutable n_flushes : int;
  mutable n_takeovers : int;
  mutable n_adoptions : int;
  mutable n_retries : int;
  mutable n_failovers : int;
  mutable n_crashes : int;
  mutable n_lock_breaks : int;
  mutable n_doorbells : int;
  takeovers_pid : int array;  (* per partition: foreign serves of its rings *)
  lock_breaks_pid : int array;  (* per partition: locks reclaimed from dead holders *)
  (* adaptive delegation (all unused — and unallocated — unless [serving]
     is adaptive, so the static protocol stays bit-identical) *)
  modes : mode array;
  mode_addr : int array;  (* per partition: the charged mode word *)
  mutable dlocks : Cna.t array;  (* per partition: the direct-mode CNA lock *)
  mutable n_direct : int;
  mutable n_to_direct : int;
  mutable n_to_delegated : int;
  direct_pid : int array;  (* per partition: ops run via the direct path *)
  remote_pid : int array;  (* per partition: remote ops issued (any mode) *)
  flips_pid : int array;  (* per partition: mode transitions *)
  lat_sum_pid : int array;  (* per partition: sum of issue->done latencies *)
  lat_cnt_pid : int array;  (* per partition: completed remote ops measured *)
  (* per-key version table for delegation-coherent front caches. Slots are
     global (not per partition) so a version survives partition failover and
     re-issue: the counter only ever grows, wherever the write re-applies.
     Both fields stay unallocated when [versions] = 0, so the default keeps
     the address layout — and thus cycle accounting — bit-identical. *)
  mutable vers : int array;
  mutable vers_base : int;  (* charged base line, 8 slots per line; -1 = off *)
  mutable n_bumps : int;
}

let npartitions t = Array.length t.partitions

(* [abs] after [mod]: [abs min_int] is negative *)
let bucket_of_key t key = abs (t.hash key mod Array.length t.ns_table)

let bucket_owner t ~bucket =
  Sthread.charge_read (t.ns_base + (bucket / 8));
  t.ns_table.(bucket)

let partition_of_key t key = bucket_owner t ~bucket:(bucket_of_key t key)
let partition_data t pid = t.partitions.(pid).data
let client_hw t i = t.placement.(i)

(* --- per-key versions (delegation-coherent front-cache invalidation) --- *)

let versioned t = t.vers_base >= 0

(* A second mix on top of the user hash: the memcached variants use the
   identity hash, and strided keys must not alias systematically. *)
let vslot t key =
  let h = t.hash key * 0x9E3779B1 in
  let h = h lxor (h lsr 15) in
  (h land max_int) mod Array.length t.vers

let bump_version t ~key =
  if t.vers_base >= 0 then begin
    let s = vslot t key in
    t.vers.(s) <- t.vers.(s) + 1;
    t.n_bumps <- t.n_bumps + 1;
    (* a publishing store, charged to whichever thread applies the write:
       the serving thread under delegation, the lock holder in direct mode *)
    Sthread.write_release (t.vers_base + (s / 8))
  end

let read_version t ~key =
  if t.vers_base < 0 then 0
  else begin
    let s = vslot t key in
    (* racy by design: a cached entry validated against a torn-stale value
       only fails conservatively (false invalidation), never serves stale *)
    Sthread.read_racy (t.vers_base + (s / 8));
    t.vers.(s)
  end

let delegated_ops t = t.n_delegated
let local_ops t = t.n_local
let batch_flushes t = t.n_flushes
let direct_ops t = t.n_direct
let mode t ~pid = t.modes.(pid)
let mode_flips t = (t.n_to_direct, t.n_to_delegated)
let active t = t.remaining > 0

(* Host-side controller inputs, uncharged (like [health]): the controller
   samples them at its epoch and diffs against the previous sample. *)
type signal = {
  s_mode : mode;
  s_pending : int;  (** delegations queued in the rings right now *)
  s_remote_ops : int;  (** remote ops issued at this partition, cumulative *)
  s_lat_sum : int;  (** summed issue->done latency, cumulative *)
  s_lat_cnt : int;  (** remote completions measured, cumulative *)
}

let signals t ~pid =
  {
    s_mode = t.modes.(pid);
    s_pending = t.pending.(pid);
    s_remote_ops = t.remote_pid.(pid);
    s_lat_sum = t.lat_sum_pid.(pid);
    s_lat_cnt = t.lat_cnt_pid.(pid);
  }

(* The charged re-read of the mode word on a remote issue. Only reached
   when [adaptive t]: the line is read-mostly and stays shared until a
   controller flip invalidates it, so steady state costs one hot read. *)
let current_mode t pid =
  Sthread.read t.mode_addr.(pid);
  t.modes.(pid)

(* Close a delegation's async span exactly once, at the observation that
   hands the completion value back to the caller; feed the issue->done
   latency into the controller's per-partition signal. *)
let obs_op_done t (r : remote) =
  if r.obs_id <> 0 then begin
    Obs.async_end ~id:r.obs_id ~now:(Sthread.time ()) "dps.op";
    r.obs_id <- 0
  end;
  if r.issued_at >= 0 then begin
    t.lat_sum_pid.(r.pid) <- t.lat_sum_pid.(r.pid) + (Sthread.time () - r.issued_at);
    t.lat_cnt_pid.(r.pid) <- t.lat_cnt_pid.(r.pid) + 1;
    r.issued_at <- -1
  end

let heal_after t = match t.serving with Shared s -> s.heal_after | Owner -> None
let adaptive t = match t.serving with Shared { adaptive = Some _; _ } -> true | _ -> false

(* The one check of a call's serving precondition: [run_poller] needs ring
   locks, [set_mode] also the mode word. *)
let require t ~fn ~adaptive =
  match t.serving with
  | Shared s when s.adaptive <> None || not adaptive -> ()
  | _ ->
      let needs = if adaptive then "Shared { adaptive = Some _; _ }" else "Shared _" in
      invalid_arg (Printf.sprintf "Dps.%s: create with ~serving:(%s)" fn needs)

let health t =
  {
    pending_depth = Array.copy t.pending;
    dead_partitions = Array.copy t.dead;
    takeovers = t.n_takeovers;
    adoptions = t.n_adoptions;
    retries = t.n_retries;
    failovers = t.n_failovers;
    crashes = t.n_crashes;
    lock_breaks = t.n_lock_breaks;
  }

(* Ring a doorbell: wake the server parked behind it, at no charge. A
   bell whose thread died rings nobody and is not counted. *)
let ring_bell t b =
  if b.armed then begin
    b.armed <- false;
    if Sthread.unpark t.sched ~tid:b.bsid then t.n_doorbells <- t.n_doorbells + 1
  end

(* A client stops issuing (done or crashed). The last one wakes every
   parked server, so dedicated pollers see the run end. *)
let client_gone t =
  t.remaining <- t.remaining - 1;
  if t.remaining = 0 then
    Array.iter
      (fun p -> Array.iter (fun (ring : ring) -> ring_bell t ring.bell) p.rings)
      t.partitions

(* Hand [cl]'s serving share to a peer of its locality, so an exiting or
   crashed client does not orphan its rings (the §4.4 liveness argument
   needs *some* thread of the locality to keep serving them). Prefer a peer
   still issuing — it scans its rings anyway; fall back to any peer whose
   thread is still alive (a drainer). With no candidate the share stays,
   and either our own [drain] or partition failover covers it. *)
let adopt_share t cl =
  if Array.length cl.served > 0 then begin
    let peers = List.filter (fun p -> p != cl && p.cstate <> Gone) t.members.(cl.my_pid) in
    let target =
      match List.find_opt (fun p -> p.cstate = Issuing) peers with
      | Some p -> Some p
      | None -> ( match peers with p :: _ -> Some p | [] -> None)
    in
    match target with
    | Some peer ->
        peer.served <- Array.append peer.served cl.served;
        cl.served <- [||];
        t.n_adoptions <- t.n_adoptions + 1;
        (* a parked peer is not registered on the rings it just adopted:
           wake it to scan them *)
        ring_bell t peer.bell
    | None -> ()
  end

(* A partition with no live member can never serve again: retarget its
   namespace buckets onto live partitions round-robin — the same bucket
   rewrite [rebalance] performs, minus the data move (a dying thread's exit
   hook may not run charged operations, and the dead locality cannot answer
   an extract). The retarget has rebalance's relaxed contract: the dead
   partition's keys read as absent until recovered; [partition_data] still
   reaches the old slice for offline migration. *)
let fail_over t pid =
  if not t.dead.(pid) then begin
    t.dead.(pid) <- true;
    t.n_failovers <- t.n_failovers + 1;
    let live =
      Array.of_list
        (List.filter (fun p -> not t.dead.(p)) (List.init (npartitions t) Fun.id))
    in
    if Array.length live > 0 then begin
      let j = ref 0 in
      Array.iteri
        (fun b owner ->
          if owner = pid then begin
            t.ns_table.(b) <- live.(!j mod Array.length live);
            incr j
          end)
        t.ns_table
    end
  end

let partition_has_live_member t pid =
  List.exists (fun p -> p.cstate <> Gone) t.members.(pid)

(* Exit hook: every retired thread lands in [dead_tids] (so abandoned ring
   locks and claims can be recognised); a thread that dies while attached
   is a crash — account for its unfinished [client_done], hand its serving
   share to a peer, and fail the partition over if it was the last one.
   Runs in the dying thread's context: bookkeeping only, nothing charged.
   Operations still staged (never published) die with the client — they
   were never acked, so exactly-once is preserved. *)
let handle_exit t sid =
  Hashtbl.replace t.dead_tids sid ();
  match Hashtbl.find_opt t.clients sid with
  | None -> ()
  | Some cl ->
      Hashtbl.remove t.clients sid;
      (* a sender killed at its publish's store never rang the doorbell *)
      Array.iter
        (fun p ->
          let ring = p.rings.(cl.tid) in
          if ring.rpending > 0 then ring_bell t ring.bell)
        t.partitions;
      if cl.cstate = Issuing then begin
        t.n_crashes <- t.n_crashes + 1;
        client_gone t
      end;
      cl.cstate <- Gone;
      adopt_share t cl;
      (* fail over only while someone is still issuing: a locality whose
         members all exited after the run wound down ([remaining] = 0) is
         finished, not dead *)
      if t.remaining > 0 && not (partition_has_live_member t cl.my_pid) then
        fail_over t cl.my_pid

let create sched ~nclients ~locality_size ~hash ?(ring_slots = 16) ?(check_budget = 4)
    ?(serving = Owner) ?(batch = 1) ?(batch_age = 1500) ?(versions = 0) ?placement ~mk_data () =
  assert (nclients > 0 && locality_size > 0);
  let heal_after, start_mode =
    match serving with Owner -> (None, None) | Shared s -> (s.heal_after, s.adaptive)
  in
  (* configurations that cannot make progress: a ring with no slot, peers
     that never serve, a table of negative size, a timeout already due *)
  List.iter
    (fun (bad, what) -> if bad then invalid_arg ("Dps.create: " ^ what))
    [
      (ring_slots < 1, "ring_slots < 1");
      (check_budget < 1, "check_budget < 1");
      (versions < 0, "versions < 0");
      (Option.fold ~none:false ~some:(fun n -> n < 1) heal_after, "heal_after < 1");
    ];
  let batch = Int.max 1 (Int.min batch max_batch) in
  let m = Sthread.machine sched in
  let topo = Machine.topology m in
  let placement =
    match placement with
    | None -> Topology.placement topo ~n:nclients
    | Some p ->
        if Array.length p < nclients then
          invalid_arg "Dps.create: placement shorter than nclients";
        p
  in
  let nparts = (nclients + locality_size - 1) / locality_size in
  let ns_sz = 64 * nparts in
  let mk_partition pid =
    let node = Topology.socket_of_thread topo placement.(pid * locality_size) in
    let info = { pid; node; alloc = Alloc.create m ~cold:(Alloc.Node node) } in
    let mk_ring _client =
      let mk_slot _ =
        {
          maddr = Machine.alloc m (Machine.On_node node) ~lines:1;
          toggle = false;
          count = 0;
          claim = -1;
          entries =
            Array.init batch (fun _ ->
                { eop = None; eret = 0; edone = false; ecancelled = false; ecell = None });
        }
      in
      let rlock =
        if serving <> Owner then
          Some (Spinlock.embed ~addr:(Machine.alloc m (Machine.On_node node) ~lines:1))
        else None
      in
      {
        slots = Array.init ring_slots mk_slot;
        send_idx = 0;
        recv_idx = 0;
        rlock;
        rpending = 0;
        bell = no_bell;
      }
    in
    { info; data = mk_data info; rings = Array.init nclients mk_ring }
  in
  let stages =
    if batch <= 1 then [||]
    else
      Array.init nclients (fun c ->
          let node = Topology.socket_of_thread topo placement.(c) in
          Array.init nparts (fun spid ->
              {
                spid;
                saddr = Machine.alloc m (Machine.On_node node) ~lines:1;
                sops = Array.make batch None;
                scells = Array.make batch None;
                sn = 0;
                sopened = 0;
              }))
  in
  let t =
    {
      sched;
      partitions = Array.init nparts mk_partition;
      nclients;
      locality_size;
      hash;
      check_budget;
      serving;
      batch;
      batch_age;
      stages;
      placement;
      clients = Hashtbl.create (2 * nclients);
      members = Array.make nparts [];
      dead_tids = Hashtbl.create 64;
      dead = Array.make nparts false;
      last_served = Array.make nparts 0;
      pending = Array.make nparts 0;
      ns_table = Array.init ns_sz (fun b -> b mod nparts);
      ns_base = Machine.alloc m Machine.Interleave ~lines:((ns_sz + 7) / 8);
      remaining = nclients;
      n_delegated = 0;
      n_local = 0;
      n_flushes = 0;
      n_takeovers = 0;
      n_adoptions = 0;
      n_retries = 0;
      n_failovers = 0;
      n_crashes = 0;
      n_lock_breaks = 0;
      n_doorbells = 0;
      takeovers_pid = Array.make nparts 0;
      lock_breaks_pid = Array.make nparts 0;
      modes = Array.make nparts (if start_mode = Some `Direct then Direct else Delegated);
      mode_addr = Array.make nparts 0;
      dlocks = [||];
      n_direct = 0;
      n_to_direct = 0;
      n_to_delegated = 0;
      direct_pid = Array.make nparts 0;
      remote_pid = Array.make nparts 0;
      flips_pid = Array.make nparts 0;
      lat_sum_pid = Array.make nparts 0;
      lat_cnt_pid = Array.make nparts 0;
      vers = [||];
      vers_base = -1;
      n_bumps = 0;
    }
  in
  (* adaptive-only allocations come strictly last, after every static
     structure, so the static address layout (and thus cycle accounting)
     is bit-identical with adaptation off *)
  if start_mode <> None then begin
    Array.iteri
      (fun pid p ->
        t.mode_addr.(pid) <- Machine.alloc m (Machine.On_node p.info.node) ~lines:1)
      t.partitions;
    t.dlocks <- Array.map (fun p -> Cna.create p.info.alloc m) t.partitions
  end;
  (* the version table follows the same allocate-last rule *)
  if versions > 0 then begin
    t.vers <- Array.make versions 0;
    t.vers_base <- Machine.alloc m Machine.Interleave ~lines:((versions + 7) / 8)
  end;
  Sthread.on_exit sched (handle_exit t);
  t

let attach t ~client =
  assert (client >= 0 && client < t.nclients);
  let sid = Sthread.self_id () in
  if Hashtbl.mem t.clients sid then failwith "Dps: thread already attached";
  let my_pid = client / t.locality_size in
  let my_index = client mod t.locality_size in
  (* §4.3: the flat array of a partition's rings is divided across the
     cores of that locality, so peers serve disjoint rings without
     synchronization. A tail locality (nclients not a multiple of
     locality_size) has fewer members than ring indices, so the division
     folds onto the members that exist — without the fold, rings at the
     missing indices are served by nobody and every delegation into them
     waits out the awaiter's full escalation timeout. For full localities
     the fold is the identity, so the ring-to-server map (and the charge
     stream) is unchanged. *)
  let nmembers = Int.min t.locality_size (t.nclients - (my_pid * t.locality_size)) in
  let served =
    Array.to_list t.partitions.(my_pid).rings
    |> List.filteri (fun c _ -> c mod t.locality_size mod nmembers = my_index)
    |> Array.of_list
  in
  let cl =
    {
      sid;
      tid = client;
      my_pid;
      served;
      cursor = 0;
      cstate = Issuing;
      flushing = false;
      bell = { bsid = sid; armed = false };
    }
  in
  Hashtbl.replace t.clients sid cl;
  t.members.(my_pid) <- cl :: t.members.(my_pid)

let me t =
  match Hashtbl.find t.clients (Sthread.self_id ()) with
  | c -> c
  | exception Not_found -> failwith "Dps: thread not attached"

(* Retire a served (or discarded) batch: hand every waiting sender its
   outcome — done, or lost for an entry that never ran — then clear claim
   and toggle and count the slot out. Runs in the same atomic block as the
   caller's releasing store, before its charge: a server killed at the
   store must not leave a cleared slot still counted — that count would
   never drain. *)
let retire t ~pid ring slot =
  let n = slot.count in
  for i = 0 to n - 1 do
    let e = slot.entries.(i) in
    (match e.ecell with
    | Some r ->
        r.state <- (if e.edone then Done e.eret else Lost);
        r.fresh <- Some slot
    | None -> ());
    e.ecell <- None;
    e.ecancelled <- false
  done;
  slot.claim <- -1;
  slot.toggle <- false;
  ring.recv_idx <- ring.recv_idx + 1;
  ring.rpending <- ring.rpending - n;
  t.pending.(pid) <- t.pending.(pid) - n

(* Run a claimed batch and publish its replies; returns the number of
   operations run. *)
let dispatch t ~pid ring slot =
  let served = ref 0 in
  for i = 0 to slot.count - 1 do
    let e = slot.entries.(i) in
    match (e.eop, e.ecell) with
    | Some op, None ->
        (* fire-and-forget: no awaiter could ever re-issue this, so keep
           the descriptor armed until the operation has run — a takeover of
           this slot after we crash mid-dispatch re-runs it. Safe against
           double dispatch because only a dead claimer's slot can be
           re-claimed. *)
        Sthread.work dispatch_cost;
        e.eret <- op ();
        e.edone <- true;
        e.eop <- None;
        incr served
    | Some op, Some _ ->
        (* awaited: disarm before dispatching, so an escalating awaiter that
           still sees the descriptor can cancel and re-issue without racing
           our execution *)
        e.eop <- None;
        (match e.ecell with
        | Some r when r.obs_id <> 0 -> Obs.async_step ~id:r.obs_id ~now:(Sthread.time ()) "dispatch"
        | _ -> ());
        (* request unmarshalling and dispatch, per operation *)
        Sthread.work dispatch_cost;
        e.eret <- op ();
        e.edone <- true;
        incr served
    | None, _ -> ()
  done;
  (* one releasing store acks the whole batch: fill every completion cell,
     clear the toggle, then a single line transfer *)
  retire t ~pid ring slot;
  t.last_served.(pid) <- Sthread.time ();
  if !failpoint_skip_completion_fence then Sthread.write slot.maddr
  else Sthread.write_release slot.maddr;
  !served

(* Serve the requests pending in one ring, assuming exclusive access (the
   ring lock, if any, is held by the caller). The batch is the unit of
   service: each entry is claimed (op taken) before its dispatch work is
   charged, so a second server never double-executes and a crash
   mid-dispatch leaves a claim that recovery can recognise as lost —
   entries the dead server already finished keep their buffered reply and
   are *not* re-dispatched, so a takeover of a partially served batch stays
   exactly-once. All replies then publish with one releasing store.
   [budget] is approximate: a batch is never split across budgets.

   Here and below, a span is opened only under [Obs.on ()]: its closure
   and arguments would otherwise be allocated on every call. *)
let serve_slots t ~pid ring ~budget =
  let self = Sthread.self_id () in
  let served = ref 0 in
  let continue_ring = ref true in
  while !continue_ring && !served < budget do
    let slot = ring.slots.(ring.recv_idx mod Array.length ring.slots) in
    Sthread.read slot.maddr;
    if not slot.toggle then continue_ring := false
    else if slot.claim >= 0 && not (Hashtbl.mem t.dead_tids slot.claim) then
      (* a live server is mid-dispatch (reachable only through a broken
         ring lock); leave the batch to it *)
      continue_ring := false
    else begin
      slot.claim <- self;
      let ran =
        if Obs.on () then
          obs_span ~args:[ ("count", Obs.A_int slot.count) ] "dps.dispatch" (fun () ->
              dispatch t ~pid ring slot)
        else dispatch t ~pid ring slot
      in
      served := !served + ran
    end
  done;
  !served

(* Drain up to [budget] pending requests from one ring. When the ring has
   a lock (a [Shared] serving policy), it serializes us with other
   servers; on contention we simply skip the ring. *)
let serve_ring t ~pid ring ~budget =
  match ring.rlock with
  | None -> serve_slots t ~pid ring ~budget
  | Some l when Spinlock.try_acquire l ->
      let served = serve_slots t ~pid ring ~budget in
      Spinlock.release l;
      served
  | Some _ -> 0

(* Break a lock of partition [pid] whose [holder] died inside its critical
   section, the step ring takeover and direct mode share; [true] if broken *)
let break_dead t pid holder break =
  match holder with
  | Some h when h >= 0 && Hashtbl.mem t.dead_tids h ->
      break ();
      t.n_lock_breaks <- t.n_lock_breaks + 1;
      t.lock_breaks_pid.(pid) <- t.lock_breaks_pid.(pid) + 1;
      true
  | _ -> false

(* Break the lock of each of [pid]'s [rings] whose holder died inside it.
   [serve_ring] skips a held lock, so a batch published behind a dead
   holder's lock is otherwise served only by an awaiting sender's
   escalation, and a fire-and-forget delegation has none. Charges nothing
   unless a lock is broken. *)
let break_dead_rings t pid rings =
  Array.iter
    (fun ring ->
      match ring.rlock with
      | Some l -> ignore (break_dead t pid (Spinlock.owner l) (fun () -> Spinlock.break_lock l))
      | None -> ())
    rings

(* Forced-serve patience under a policy that does not heal *)
let unhealed_patience = default_heal_after / 16

(* Forcibly serve one ring: wait out a live lock holder up to [patience],
   break the lock of a dead one. The per-ring step behind takeover. *)
let takeover_ring t pid ring =
  match ring.rlock with
  | None -> 0
  | Some l ->
      let patience =
        match heal_after t with Some n -> Int.max 512 (n / 16) | None -> unhealed_patience
      in
      if
        Spinlock.acquire_for l ~budget:patience
        || (break_dead t pid (Spinlock.owner l) (fun () -> Spinlock.break_lock l)
           && Spinlock.try_acquire l)
      then begin
        let served = serve_slots t ~pid ring ~budget:max_int in
        Spinlock.release l;
        served
      end
      else 0

(* Takeover (§4.4 under faults): serve *every* ring of partition [pid]
   ourselves, like a dedicated poller would — used by a sender whose
   delegation has stalled past its timeout, so a dead peer's share (or a
   whole dead locality) still makes progress. Ring locks abandoned by
   crashed holders are broken and reclaimed. *)
let takeover t pid =
  let served =
    Array.fold_left (fun n ring -> n + takeover_ring t pid ring) 0 t.partitions.(pid).rings
  in
  if served > 0 then begin
    t.n_takeovers <- t.n_takeovers + 1;
    t.takeovers_pid.(pid) <- t.takeovers_pid.(pid) + 1
  end;
  served

let takeover_serve t pid =
  if Obs.on () then
    obs_span ~args:[ ("pid", Obs.A_int pid) ] "dps.takeover" (fun () -> takeover t pid)
  else takeover t pid

(* Serve every ring of [pid] that holds published work. The occupancy
   hints keep this proportional to the backlog — probing all N ring locks
   with charged RMWs would cost more than the backlog itself on a sparse
   partition. *)
let serve_backlog t pid =
  if t.pending.(pid) = 0 then 0
  else
    Array.fold_left
      (fun served ring ->
        if ring.rpending > 0 then served + serve_ring t ~pid ring ~budget:max_int else served)
      0 t.partitions.(pid).rings

(* the runtime still interposes on local operations (§5.2 notes the
   overhead this causes for small update ratios) *)
let local_op t pid op =
  Sthread.work (dispatch_cost / 4);
  op t.partitions.(pid).data

let run_local t pid op =
  t.n_local <- t.n_local + 1;
  if Obs.on () then obs_span "dps.local" (fun () -> local_op t pid op) else local_op t pid op

(* Direct mode: bypass the rings and serialize on the partition's CNA
   lock. The holder first drains any delegated remnants still queued in
   the rings (ops published before — or racing — a mode flip, and staged
   batches that aged out after it), so no delegation is ever stranded
   behind the flip.

   Acquisition is bounded-patience, never blocking: a client probes the
   lock a few times with backoff and, if it stays busy, returns [None].
   Committing to an unbounded queue wait would be unsafe across a mode
   flip — waiters stranded in the lock queue when the partition turns
   delegated again would serialize a convoy no flip can dissolve. On
   [None], synchronous callers spin-retry with a mode re-read between
   attempts (so a flip redirects them at once), while fire-and-forget
   callers fall back to the ring path, which stays live in direct mode:
   holders combine the ring backlog before their own op, and the flip
   protocol / final drain sweep retire whatever remains. *)
let direct_attempts = 4

let rec direct_attempt t pid op n =
  if Cna.try_acquire t.dlocks.(pid) then begin
    ignore (serve_backlog t pid);
    Sthread.work (dispatch_cost / 4);
    let v = op t.partitions.(pid).data in
    t.n_direct <- t.n_direct + 1;
    t.direct_pid.(pid) <- t.direct_pid.(pid) + 1;
    Cna.release t.dlocks.(pid);
    Some v
  end
  else begin
    (* a holder that crashed inside its critical section would otherwise
       wedge the partition in direct mode forever: try_acquire only ever
       wins an empty queue *)
    let dl = t.dlocks.(pid) in
    ignore (break_dead t pid (Cna.owner dl) (fun () -> Cna.break_lock dl));
    if n >= direct_attempts then None
    else begin
      Sthread.work (64 * n);
      direct_attempt t pid op (n + 1)
    end
  end

let try_run_direct t pid op =
  if Obs.on () then
    obs_span ~args:[ ("pid", Obs.A_int pid) ] "dps.direct" (fun () -> direct_attempt t pid op 1)
  else direct_attempt t pid op 1

(* Discard instead of drain (the [failpoint_stuck_transition] mutation):
   abandon the in-flight ring slots. Awaited entries are declared lost so
   their senders re-issue; fire-and-forget entries simply vanish — the
   accounting oracle must catch the lost updates. *)
let discard_rings t pid =
  Array.iter
    (fun ring ->
      Array.iter
        (fun slot ->
          if slot.toggle then begin
            for i = 0 to slot.count - 1 do
              slot.entries.(i).eop <- None;
              slot.entries.(i).edone <- false
            done;
            retire t ~pid ring slot;
            Sthread.write_release slot.maddr
          end)
        ring.slots)
    t.partitions.(pid).rings

(* Retire every published delegation from [pid]'s rings. Runs with the
   partition already marked [Draining], so clients that re-read the mode
   word route new work through the CNA lock (and help drain) while the
   controller clears the backlog. Slots claimed by a live server are left
   to it; rings wedged behind a dead holder's lock fall back to takeover,
   which breaks the lock. *)
let quiesce t pid =
  if !failpoint_stuck_transition then discard_rings t pid
  else begin
    let stalls = ref 0 in
    while t.pending.(pid) > 0 do
      if serve_backlog t pid > 0 then stalls := 0
      else begin
        incr stalls;
        if !stalls >= 8 then begin
          (* force the occupied rings only: waiting out (or breaking) all
             N ring locks would stall the controller for tens of thousands
             of cycles per pass *)
          Array.iter
            (fun ring -> if ring.rpending > 0 then ignore (takeover_ring t pid ring))
            t.partitions.(pid).rings;
          stalls := 0
        end
        else Sthread.work 128
      end
    done
  end

let note_flip t pid m =
  t.flips_pid.(pid) <- t.flips_pid.(pid) + 1;
  (match m with
  | Direct -> t.n_to_direct <- t.n_to_direct + 1
  | Delegated | Draining -> t.n_to_delegated <- t.n_to_delegated + 1);
  if Obs.tracing_on () then
    Obs.instant ~tid:(Sthread.self_id ())
      ~now:(Sthread.time ())
      ~args:
        [
          ("pid", Obs.A_int pid);
          ("mode", Obs.A_str (match m with Direct -> "direct" | _ -> "delegated"));
        ]
      "dps.mode_flip"

(* Online mode transition, controller side. The mode word has a single
   writer (the controller); clients re-read it on every remote issue.
   Delegated -> Direct goes through [Draining]: clients switch to the CNA
   path at once while the controller retires the published backlog, so
   exactly-once and ring order survive the flip. Direct -> Delegated
   needs no drain: a direct holder finishes its op under the lock and new
   work simply queues in the rings again. *)
let set_mode t ~pid target =
  require t ~fn:"set_mode" ~adaptive:true;
  match (t.modes.(pid), target) with
  | (Delegated | Draining), `Direct ->
      t.modes.(pid) <- Draining;
      Sthread.write_release t.mode_addr.(pid);
      quiesce t pid;
      t.modes.(pid) <- Direct;
      Sthread.write_release t.mode_addr.(pid);
      note_flip t pid Direct
  | (Direct | Draining), `Delegated ->
      t.modes.(pid) <- Delegated;
      Sthread.write_release t.mode_addr.(pid);
      note_flip t pid Delegated
  | Direct, `Direct | Delegated, `Delegated -> ()

(* The self-healing deadline of a wait starting now: [heal_after] cycles
   out, or never when the policy does not heal — so no wait loop needs a
   healing test of its own. *)
let deadline t = match heal_after t with Some n -> Sthread.time () + n | None -> max_int

(* Publish [n] operations into a claimed ring slot — the one publish step
   behind [send_direct] and [flush_stage]: fill the entries, set count and
   toggle, then one releasing store moves the whole message line to the
   partition's socket. The publish bookkeeping lands in the same atomic
   block as the toggle, before the charge: a sender killed at the store
   must not leave a published slot uncounted — its retire would drive the
   counts negative. *)
let publish t cl pid slot n op_at cell_at =
  for i = 0 to n - 1 do
    let e = slot.entries.(i) in
    e.eop <- op_at i;
    e.eret <- 0;
    e.edone <- false;
    e.ecancelled <- false;
    e.ecell <- cell_at i;
    match e.ecell with
    | Some r ->
        r.state <- Flushed (slot, i);
        r.pid <- pid;
        if r.obs_id <> 0 then Obs.async_step ~id:r.obs_id ~now:(Sthread.time ()) "sent"
    | None -> ()
  done;
  slot.count <- n;
  slot.toggle <- true;
  t.n_delegated <- t.n_delegated + n;
  let ring = t.partitions.(pid).rings.(cl.tid) in
  ring.rpending <- ring.rpending + n;
  t.pending.(pid) <- t.pending.(pid) + n;
  Sthread.write_release slot.maddr;
  (* the doorbell, once the message line has moved *)
  ring_bell t ring.bell

(* Claim a free slot in this client's ring to [pid], serving own duties
   while the ring is full. Under self-healing, a ring stuck full past the
   timeout (its servers died) is drained by takeover so the sender is
   never wedged in claim. Mutually recursive with the serving path: serving
   flushes aged batches, which claims slots. The loop does not share
   [await]'s idle policy: its [work 64] comes before the own-ring drain,
   and one shared policy would reorder those charges. *)
let rec claim_slot t cl pid =
  let ring = t.partitions.(pid).rings.(cl.tid) in
  let due = ref (deadline t) in
  let rec try_claim () =
    let slot = ring.slots.(ring.send_idx mod Array.length ring.slots) in
    Sthread.read slot.maddr;
    if slot.toggle then begin
      (* ring full: overlap with serving (§4.3) *)
      if serve_as t cl ~max:t.check_budget = 0 then Sthread.work 64;
      (* a full ring on a partition that flipped to direct mode may have
         nobody left serving it — it is our own ring, so drain it ourselves *)
      if t.modes.(pid) <> Delegated then ignore (serve_ring t ~pid ring ~budget:max_int);
      if Sthread.time () > !due then begin
        ignore (takeover_serve t pid);
        due := deadline t
      end;
      try_claim ()
    end
    else begin
      ring.send_idx <- ring.send_idx + 1;
      slot
    end
  in
  try_claim ()

(* Publish one staged batch into a ring slot: claim, copy the descriptor
   group out of the staging line, one releasing store. The whole batch
   crosses to the partition's socket as a single message-line transfer.
   Under [failpoint_drop_batch_flush] the last staged *asynchronous*
   operation is silently dropped (an op with a waiter would hang the
   mutant instead of corrupting state, which is the bug we want the
   accounting oracle to catch). *)
and flush_stage t cl stage =
  if stage.sn > 0 then
    if Obs.on () then
      obs_span ~args:[ ("n", Obs.A_int stage.sn) ] "dps.flush" (fun () -> publish_stage t cl stage)
    else publish_stage t cl stage

and publish_stage t cl stage =
  cl.flushing <- true;
  let n0 = stage.sn in
  let n =
    if !failpoint_drop_batch_flush && n0 > 1 && stage.scells.(n0 - 1) = None then n0 - 1 else n0
  in
  let slot = claim_slot t cl stage.spid in
  (* gather the staged descriptors for the group copy *)
  Sthread.charge_read stage.saddr;
  (* empty the stage in the publish's atomic block, so a sender killed at
     the store leaves nothing behind to publish twice *)
  stage.sn <- 0;
  t.n_flushes <- t.n_flushes + 1;
  publish t cl stage.spid slot n (Array.get stage.sops) (Array.get stage.scells);
  Array.fill stage.sops 0 n0 None;
  Array.fill stage.scells 0 n0 None;
  cl.flushing <- false

(* Flush every staged batch whose oldest operation is at least [age]
   cycles old. Every serve flushes at [batch_age] — the bound that keeps
   coalescing from turning into unbounded latency, even for a client busy
   serving; [age] 0 flushes everything staged. *)
and flush_aged t cl ~age =
  if Array.length t.stages > 0 && not cl.flushing then begin
    let now = Sthread.time () in
    Array.iter
      (fun st -> if st.sn > 0 && now - st.sopened >= age then flush_stage t cl st)
      t.stages.(cl.tid)
  end

(* Serve at most [budget] pending requests from this client's share of its
   partition's rings, scanning round-robin from a persistent cursor so no
   ring starves under load; returns the number served. *)
and serve_as t cl ~max:budget =
  flush_aged t cl ~age:t.batch_age;
  let served = ref 0 in
  let i = ref 0 in
  let n = Array.length cl.served in
  while !served < budget && !i < n do
    let ring = cl.served.((cl.cursor + !i) mod n) in
    served := !served + serve_ring t ~pid:cl.my_pid ring ~budget:(budget - !served);
    incr i
  done;
  if n > 0 then cl.cursor <- (cl.cursor + Int.max 1 !i) mod n;
  !served

let serve t ~max = serve_as t (me t) ~max
let flush_all t cl = flush_aged t cl ~age:0

let flush_pending t = flush_all t (me t)

(* Whether [ring]'s next slot holds a published batch: one charged read
   that settles at the caller's next scheduling point. Racy by design:
   serving re-reads the slot under the ring's discipline. *)
let published ring =
  let slot = ring.slots.(ring.recv_idx mod Array.length ring.slots) in
  Sthread.charge_read_racy slot.maddr;
  slot.toggle

(* The park of the idle loop. In one atomic block: probe the next slot of
   each of [rings] and, if none holds a published batch, arm [bell], point
   every ring at it and park with no timer. A publisher sets its toggle
   before its store's charge and rings after it, so a batch the probe
   missed finds the bell armed; a bell rung while the probe's reads settle
   leaves a wakeup permit, and the park returns at once. [true] if the
   caller parked. *)
let park_unless_published bell rings =
  if Array.exists published rings then false
  else begin
    bell.armed <- true;
    Array.iter (fun (ring : ring) -> ring.bell <- bell) rings;
    Sthread.park ();
    bell.armed <- false;
    true
  end

(* The one idle loop, behind [poll] and [run_poller]: [scan] the share of
   [pid]'s rings; when it served nothing and a client is still issuing,
   park unless a batch is published in [share ()], the share as it stands
   after the scan. The run's end rings only armed bells, so the
   [remaining] test shares the park's atomic block. A published batch the
   scan could not serve may sit behind a dead holder's lock: break such
   locks and scan again. Returns what the last scan served. *)
let idle_loop t ~pid bell ~share ~scan =
  let rec go () =
    let served = scan () in
    if served > 0 || t.remaining = 0 || park_unless_published bell (share ()) then served
    else begin
      break_dead_rings t pid (share ());
      go ()
    end
  in
  go ()

(* The idle duty of a client with nothing else to do: publish its staged
   batches, then the idle loop over its share. *)
let poll t ~max =
  let cl = me t in
  flush_all t cl;
  let scan () = serve_as t cl ~max in
  idle_loop t ~pid:cl.my_pid cl.bell ~share:(fun () -> cl.served) ~scan

(* The [batch = 1] send, identical to the paper's one-op-per-line
   protocol. It marshals straight into the message line rather than
   running as a one-op stage: the stage path would add a staging-line
   write and a charged read of it to every delegation. *)
let send_direct t cl pid fop cell =
  let slot = claim_slot t cl pid in
  (* argument marshalling into the message line *)
  Sthread.work marshal_cost;
  publish t cl pid slot 1 (fun _ -> Some fop) (fun _ -> cell)

(* Coalescing send: marshal into the thread-private staging line; the
   batch publishes when full or aged. *)
let stage_op t cl pid fop cell =
  let stage = t.stages.(cl.tid).(pid) in
  (* argument marshalling into the staging line (socket-local) *)
  Sthread.work marshal_cost;
  Sthread.write stage.saddr;
  if stage.sn = 0 then stage.sopened <- Sthread.time ();
  stage.sops.(stage.sn) <- Some fop;
  stage.scells.(stage.sn) <- cell;
  (match cell with
  | Some r ->
      r.state <- Staged stage;
      r.pid <- pid
  | None -> ());
  stage.sn <- stage.sn + 1;
  if stage.sn >= t.batch || Sthread.time () - stage.sopened >= t.batch_age then
    flush_stage t cl stage

let send t cl pid fop cell =
  if t.batch > 1 then stage_op t cl pid fop cell else send_direct t cl pid fop cell

let issue t cl pid fop cell =
  if Obs.on () then obs_span "dps.issue" (fun () -> send t cl pid fop cell)
  else send t cl pid fop cell

(* Route one operation to partition [pid] — the only copy of the adaptive
   choice. A local operation runs in place; a remote one is counted for the
   controller and, while its partition is out of delegated mode, tries the
   CNA lock. A busy lock sends an awaited operation into backoff and a mode
   re-read, a fire-and-forget one to the ring (see [try_run_direct]).
   Returns the value when the operation ran here, [None] once it is
   published or staged. *)
let submit t cl pid op cell =
  let delegate () =
    issue t cl pid (fun () -> op t.partitions.(pid).data) cell;
    None
  in
  let rec route backoff =
    if not (adaptive t && current_mode t pid <> Delegated) then delegate ()
    else
      match try_run_direct t pid op with
      | Some _ as v -> v
      | None when Option.is_none cell -> delegate ()
      | None ->
          Sthread.work backoff;
          route (Int.min 1024 (backoff * 2))
  in
  if pid = cl.my_pid then Some (run_local t pid op)
  else begin
    if adaptive t then t.remote_pid.(pid) <- t.remote_pid.(pid) + 1;
    route 128
  end

(* Issue an operation to partition [pid] and return its completion. A
   remote operation gets a completion record; [route] recomputes the
   target partition on re-issue (a failed-over bucket lands on its new
   owner), and the record re-binds itself in place, so every handle to it
   observes the retry. *)
let start t pid op ~route =
  if pid = (me t).my_pid then Local (run_local t pid op)
  else begin
    let r =
      {
        state = Lost;
        pid;
        fresh = None;
        reissue = (fun () -> ());
        obs_id = Obs.next_id ();
        issued_at = (if adaptive t then Sthread.time () else -1);
        deadline = -1;
      }
    in
    if r.obs_id <> 0 then
      Obs.async_begin ~id:r.obs_id ~now:(Sthread.time ()) ~args:[ ("pid", Obs.A_int pid) ] "dps.op";
    let go pid =
      r.pid <- pid;
      Option.iter (fun v -> r.state <- Done v) (submit t (me t) pid op (Some r))
    in
    r.reissue <- (fun () -> go (route ()));
    go pid;
    Remote r
  end

let execute t ~key op =
  start t (partition_of_key t key) op ~route:(fun () -> partition_of_key t key)

(* Re-route and re-send an operation whose attempt was lost, and re-arm its
   escalation deadline. *)
let reissue t r =
  t.n_retries <- t.n_retries + 1;
  if r.obs_id <> 0 then Obs.async_step ~id:r.obs_id ~now:(Sthread.time ()) "reissue";
  r.reissue ();
  r.deadline <- deadline t

(* Escalation of a delegation stuck past its deadline: serve the target
   partition's whole ring set ourselves (most stalls resolve right there —
   including our own entry), then decide from the entry's state whether to
   keep waiting under a re-armed deadline (a live server is mid-dispatch,
   or our entry already executed and only awaits the batch publish), or
   cancel and re-issue (lost with a dead server, or wedged behind a lock we
   could not break). A cancelled entry's cell is detached so a later
   recovery of the batch cannot complete the superseded attempt. [seen] is
   the published entry, as the last observation found it pending. *)
let escalate t (r : remote) seen =
  match seen with
  | Staged _ | Done _ | Lost -> invalid_arg "Dps.escalate: not a published entry"
  | Flushed (slot, i) -> (
      ignore (takeover_serve t r.pid);
      Sthread.read slot.maddr;
      match r.state with
      | Flushed (s, j) when s == slot && j = i && slot.toggle ->
          let e = slot.entries.(i) in
          if
            e.eop <> None
            || ((not e.edone) && slot.claim >= 0 && Hashtbl.mem t.dead_tids slot.claim)
          then begin
            e.eop <- None;
            e.ecancelled <- true;
            e.ecell <- None;
            reissue t r
          end
          else begin
            if not (partition_has_live_member t r.pid) then fail_over t r.pid;
            r.deadline <- deadline t
          end
      | _ -> r.deadline <- deadline t)

(* Charge the pickup read if the server published the completion and we
   have not yet paid the line transfer that fetches the reply. *)
let pickup r =
  match r.fresh with
  | Some s ->
      r.fresh <- None;
      Sthread.read s.maddr
  | None -> ()

(* One observation of a remote completion, the step [try_await] and
   [await] share: a finished operation pays its pickup read; one lost with
   a crashed server is re-routed and re-sent; our own unflushed batch is
   forced out. A published one is polled — every observation of the reply
   goes through a charged read of the message line, so a completion
   discovered while serving is still only returned after the poll that
   would fetch it. [`Pending] leaves the idle duty to the caller, with
   [r.state] still the published entry. *)
let rec observe t cl r =
  match r.state with
  | Done v ->
      pickup r;
      obs_op_done t r;
      `Done v
  | Lost -> (
      pickup r;
      reissue t r;
      match r.state with Done _ -> observe t cl r | _ -> `Again)
  | Staged stage ->
      flush_stage t cl stage;
      `Again
  | Flushed (slot, _) -> (
      Sthread.read slot.maddr;
      r.fresh <- None;
      match r.state with Flushed _ -> `Pending | _ -> observe t cl r)

(* The wait step [try_await] and [await] share: serve my share; failing
   that, if the partition flipped under our published op (nobody may serve
   its rings any more), drain our own ring, the one that holds it. [false]
   means the controller or a direct holder has it: back off or escalate. *)
let wait_step t cl r =
  serve_as t cl ~max:t.check_budget > 0
  || t.modes.(r.pid) <> Delegated
     && serve_ring t ~pid:r.pid t.partitions.(r.pid).rings.(cl.tid) ~budget:max_int > 0

let try_await t completion =
  match completion with
  | Local v -> Some v
  | Remote r -> (
      let cl = me t in
      (* the escalation deadline starts at the first observation *)
      if r.deadline < 0 then r.deadline <- deadline t;
      match observe t cl r with
      | `Done v -> Some v
      | `Again -> None
      | `Pending ->
          let seen = r.state in
          if (not (wait_step t cl r)) && Sthread.time () > r.deadline then escalate t r seen;
          None)

(* Escalate the pause while the locality has nothing to serve, so a
   long-running remote operation does not turn into a polling storm. *)
let rec await_spin t cl r pause =
  match observe t cl r with
  | `Done v -> v
  | `Again -> await_spin t cl r 32
  | `Pending ->
      let seen = r.state in
      if wait_step t cl r then await_spin t cl r 32
      else if Sthread.time () > r.deadline then begin
        escalate t r seen;
        await_spin t cl r 32
      end
      else begin
        Sthread.work pause;
        await_spin t cl r (Int.min 4096 (2 * pause))
      end

let await t completion =
  match completion with
  | Local v -> v
  | Remote r ->
      let cl = me t in
      r.deadline <- deadline t;
      if Obs.on () then obs_span "dps.await" (fun () -> await_spin t cl r 32)
      else await_spin t cl r 32

let call t ~key op = await t (execute t ~key op)

let execute_async t ~key op =
  let pid = partition_of_key t key in
  ignore (submit t (me t) pid op None)

let execute_local t ~key op =
  let pid = partition_of_key t key in
  t.n_local <- t.n_local + 1;
  op t.partitions.(pid).data

let my_partition t = (me t).my_pid

let execute_on t ~pid op =
  assert (pid >= 0 && pid < npartitions t);
  start t pid op ~route:(fun () ->
      (* a directly-targeted partition that died is re-routed to the first
         live one — best-effort, same relaxed contract as failover *)
      if t.dead.(pid) then
        Option.value ~default:pid (Array.find_index not t.dead)
      else pid)

let call_on t ~pid op = await t (execute_on t ~pid op)

let range t op ~merge =
  let pending =
    Array.to_list (Array.mapi (fun pid _ -> execute_on t ~pid op) t.partitions)
  in
  match List.map (await t) pending with
  | [] -> invalid_arg "Dps.range: no partitions"
  | v :: rest -> List.fold_left merge v rest

let detach t =
  let cl = me t in
  flush_all t cl;
  Hashtbl.remove t.clients cl.sid;
  cl.cstate <- Gone;
  adopt_share t cl;
  t.members.(cl.my_pid) <- List.filter (fun p -> p != cl) t.members.(cl.my_pid)

(* S4.4 liveness: a dedicated polling thread for one locality. Its share is
   every ring of the partition (not just one peer's), so delegations make
   progress even when all the locality's clients are busy outside DPS.
   Requires a [Shared] serving policy (ring locks). It runs the idle loop
   until the last client stops issuing. *)
let run_poller t ~pid =
  require t ~fn:"run_poller" ~adaptive:false;
  let rings = t.partitions.(pid).rings in
  let bell = { bsid = Sthread.self_id (); armed = false } in
  if Obs.tracing_on () then
    Obs.thread_name ~tid:bell.bsid (Printf.sprintf "dps-poller p%d" pid);
  let scan () =
    Array.fold_left (fun n ring -> n + serve_ring t ~pid ring ~budget:max_int) 0 rings
  in
  obs_span ~args:[ ("pid", Obs.A_int pid) ] "dps.poll" (fun () ->
      while t.remaining > 0 do
        ignore (idle_loop t ~pid bell ~share:(fun () -> rings) ~scan)
      done)

(* Dynamic repartitioning (the paper assumes static partitioning and notes
   the dynamic variant is possible; S3.3). Moving a bucket is two phases:
   extract the bucket's items from the old owner, then retarget the bucket
   and insert the items at the new owner. Operations racing the window see
   the bucket's keys as absent — the same relaxed, non-linearizable
   contract as range operations. *)
let rebalance t ~bucket ~to_ ~extract ~insert =
  assert (bucket >= 0 && bucket < Array.length t.ns_table);
  assert (to_ >= 0 && to_ < npartitions t);
  if Obs.tracing_on () then
    Obs.instant ~tid:(Sthread.self_id ())
      ~now:(Sthread.time ())
      ~args:[ ("bucket", Obs.A_int bucket); ("to", Obs.A_int to_) ]
      "dps.rebalance";
  let from = bucket_owner t ~bucket in
  if from <> to_ then begin
    let moved = ref [] in
    ignore
      (call_on t ~pid:from (fun data ->
           moved := extract data bucket;
           List.length !moved));
    t.ns_table.(bucket) <- to_;
    Sthread.write_release (t.ns_base + (bucket / 8));
    List.iter
      (fun (key, value) -> ignore (call_on t ~pid:to_ (fun data -> insert data ~key ~value; 0)))
      !moved
  end

let client_done t =
  (match Hashtbl.find_opt t.clients (Sthread.self_id ()) with
  | Some cl ->
      (* publish anything still coalescing — a finished client must leave
         no staged work behind *)
      flush_all t cl;
      if cl.cstate = Issuing then begin
        cl.cstate <- Done_issuing;
        (* hand the serving share to a peer still issuing; with none, keep
           it — our own [drain] (or exit-time adoption) covers it *)
        if List.exists (fun p -> p != cl && p.cstate = Issuing) t.members.(cl.my_pid) then
          adopt_share t cl
      end
  | None -> ());
  client_gone t

let drain t =
  let cl = me t in
  flush_all t cl;
  while t.remaining > 0 do
    if serve_as t cl ~max:t.check_budget = 0 then Sthread.work 128
  done;
  (* No client will issue again; flush leftover (e.g. asynchronous)
     requests still sitting in this peer's share of the rings, including
     any behind the lock of a server that died mid-dispatch. *)
  break_dead_rings t cl.my_pid cl.served;
  while serve_as t cl ~max:max_int > 0 do
    ()
  done;
  (* partitions that ended the run in direct mode may hold remnants no
     regular server will ever visit *)
  if adaptive t then
    for pid = 0 to npartitions t - 1 do
      while t.pending.(pid) > 0 && not t.dead.(pid) do
        if takeover_serve t pid = 0 then Sthread.work 128
      done
    done

let register_obs ?(labels = []) t reg =
  let module R = Dps_obs.Registry in
  let g ?(labels = labels) name help f = R.gauge_fn reg ~labels ~help ("dps." ^ name) f in
  let n ?labels name help f = g ?labels name help (fun () -> float_of_int (f ())) in
  n "delegated_ops" "operations sent to a remote partition" (fun () -> t.n_delegated);
  n "doorbells" "parked servers woken by a publish, an adoption or the run's end" (fun () ->
      t.n_doorbells);
  n "local_ops" "operations run on the caller's own partition" (fun () -> t.n_local);
  n "batch_flushes" "staged batches published to a ring" (fun () -> t.n_flushes);
  n "takeovers" "foreign serves of a stuck partition's rings" (fun () -> t.n_takeovers);
  n "adoptions" "serving shares handed to a live peer" (fun () -> t.n_adoptions);
  n "retries" "operations re-issued after loss" (fun () -> t.n_retries);
  n "failovers" "partitions retired and retargeted" (fun () -> t.n_failovers);
  n "crashes" "clients that vanished without client_done" (fun () -> t.n_crashes);
  n "lock_breaks" "ring locks reclaimed from dead holders" (fun () -> t.n_lock_breaks);
  if adaptive t then begin
    n "direct_ops" "operations run via the direct CNA path" (fun () -> t.n_direct);
    n "mode_flips_to_direct" "partitions migrated delegated -> direct" (fun () -> t.n_to_direct);
    n "mode_flips_to_delegated" "partitions migrated direct -> delegated" (fun () ->
        t.n_to_delegated)
  end;
  if versioned t then
    n "version_bumps" "per-key version increments by applied writes" (fun () -> t.n_bumps);
  Array.iter
    (fun p ->
      let pid = p.info.pid in
      let labels =
        labels @ [ ("partition", string_of_int pid); ("socket", string_of_int p.info.node) ]
      in
      n ~labels "pending_depth" "delegations queued, unserved" (fun () -> t.pending.(pid));
      n ~labels "time_since_served" "cycles since this partition last served" (fun () ->
          Sthread.now t.sched - t.last_served.(pid));
      g ~labels "dead" "1 when the partition has failed over" (fun () ->
          if t.dead.(pid) then 1.0 else 0.0);
      n ~labels "takeovers_p" "foreign serves of this partition's rings" (fun () ->
          t.takeovers_pid.(pid));
      n ~labels "lock_breaks_p" "ring locks of this partition reclaimed from dead holders"
        (fun () -> t.lock_breaks_pid.(pid));
      if adaptive t then begin
        g ~labels "mode" "partition mode (0 delegated, 1 draining, 2 direct)" (fun () ->
            match t.modes.(pid) with Delegated -> 0.0 | Draining -> 1.0 | Direct -> 2.0);
        n ~labels "mode_flips_p" "mode transitions of this partition" (fun () ->
            t.flips_pid.(pid));
        n ~labels "direct_ops_p" "operations run via the direct path on this partition"
          (fun () -> t.direct_pid.(pid))
      end)
    t.partitions
