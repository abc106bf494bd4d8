module Machine = Dps_machine.Machine
module Topology = Dps_machine.Topology
module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc

(* Consecutive same-socket hand-offs before the holder must splice the
   secondary queue back in (the paper draws this threshold from a PRNG;
   a deterministic budget keeps simulation runs replayable). *)
let default_fairness = 32

type qnode = {
  qaddr : int;
  qtid : int;  (* owning thread, for crashed-holder recovery *)
  mutable locked : bool;
  mutable next : qnode option;
  mutable socket : int;  (* waiter's socket, sampled at enqueue *)
}

type t = {
  tail_addr : int;
  mutable tail : qnode option;
  (* Secondary queue of remote-socket waiters, detached from the main
     queue by releasing holders. Only the current holder touches these
     fields, so they need no charged line of their own — the hand-off
     edge orders them (same discipline as a DPS ring's recv_idx). *)
  mutable sec_head : qnode option;
  mutable sec_tail : qnode option;
  mutable owner_tid : int;  (* holder's thread id, -1 when free (host metadata) *)
  mutable local_streak : int;  (* consecutive same-socket hand-offs *)
  mutable remote_transfers : int;  (* hand-offs that crossed sockets *)
  mutable handoffs : int;  (* total hand-offs *)
  fairness : int;
  qnodes : (int, qnode) Hashtbl.t;  (* logical thread id -> qnode *)
  topo : Topology.t;
  alloc : Alloc.t;
}

let create ?(fairness = default_fairness) alloc m =
  {
    tail_addr = Alloc.line alloc;
    tail = None;
    sec_head = None;
    sec_tail = None;
    owner_tid = -1;
    local_streak = 0;
    remote_transfers = 0;
    handoffs = 0;
    fairness = max 1 fairness;
    qnodes = Hashtbl.create 64;
    topo = Machine.topology m;
    alloc;
  }

(* One queue node per (lock, thread), lazily allocated like MCS's. *)
let qnode_for t =
  let tid = if Sthread.in_sim () then Sthread.self_id () else -1 in
  match Hashtbl.find_opt t.qnodes tid with
  | Some q -> q
  | None ->
      let q = { qaddr = Alloc.line t.alloc; qtid = tid; locked = false; next = None; socket = 0 } in
      Hashtbl.add t.qnodes tid q;
      q

let my_socket t =
  if Sthread.in_sim () then Topology.socket_of_thread t.topo (Sthread.self_hw ()) else 0

let acquire t =
  let q = qnode_for t in
  q.locked <- true;
  q.next <- None;
  q.socket <- my_socket t;
  Sthread.write q.qaddr;
  Sthread.rmw t.tail_addr;
  (* atomic swap of the tail pointer *)
  let pred = t.tail in
  t.tail <- Some q;
  match pred with
  | None -> t.owner_tid <- q.qtid
  | Some p ->
      p.next <- Some q;
      Sthread.write_release p.qaddr;
      let b = Backoff.create ~initial:16 ~cap:2048 () in
      let rec wait () =
        Sthread.read q.qaddr;
        if q.locked then begin
          Backoff.once b;
          wait ()
        end
      in
      wait ()

(* Uncontended acquisition only: succeed iff the queue is empty, without
   ever joining it. A failed attempt leaves no trace to unlink, so callers
   can bound their patience and walk away — the property DPS's direct mode
   needs when a partition may change mode while the lock is busy. *)
let try_acquire t =
  if t.tail <> None then begin
    (* busy: pay the probe read, fail without touching the queue *)
    Sthread.read t.tail_addr;
    false
  end
  else begin
    let q = qnode_for t in
    q.locked <- true;
    q.next <- None;
    q.socket <- my_socket t;
    Sthread.write q.qaddr;
    Sthread.rmw t.tail_addr;
    (* the swap is conditional this time: back off if a waiter beat us *)
    match t.tail with
    | Some _ -> false
    | None ->
        t.tail <- Some q;
        t.owner_tid <- q.qtid;
        true
  end

let hand_to t ~local n =
  t.handoffs <- t.handoffs + 1;
  if local then t.local_streak <- t.local_streak + 1
  else begin
    t.local_streak <- 0;
    t.remote_transfers <- t.remote_transfers + 1
  end;
  t.owner_tid <- n.qtid;
  n.locked <- false;
  Sthread.write_release n.qaddr

(* Append the chain [h .. l] (already nil-terminated by the caller) to the
   secondary queue. *)
let stash t h l =
  (match t.sec_tail with
  | None -> t.sec_head <- Some h
  | Some st ->
      st.next <- Some h;
      Sthread.write_release st.qaddr);
  t.sec_tail <- Some l

(* Splice the whole secondary queue in front of [rest] (the remainder of
   the main queue, or None when it is empty) and hand the lock to its
   head. Counts as a remote transfer: the next holder's socket is
   arbitrary. *)
let release_secondary t ~rest =
  let h = Option.get t.sec_head and l = Option.get t.sec_tail in
  l.next <- rest;
  Sthread.write_release l.qaddr;
  t.sec_head <- None;
  t.sec_tail <- None;
  hand_to t ~local:(h.socket = my_socket t) h

(* The CNA pass: starting from successor [n], find the first waiter on the
   releaser's socket, detaching the prefix of remote waiters into the
   secondary queue. Every visited node costs a charged read — the scan is
   the price CNA pays, once per hand-off, to keep the lock on-socket. *)
let pass t my_sock n =
  if t.local_streak >= t.fairness && t.sec_head <> None then
    (* fairness epoch: starved remote waiters go first *)
    release_secondary t ~rest:(Some n)
  else begin
    Sthread.read n.qaddr;
    if n.socket = my_sock then hand_to t ~local:true n
    else begin
      (* walk for a same-socket waiter; an unlinked arrival ends the scan *)
      let rec scan prev =
        match prev.next with
        | None -> None
        | Some c ->
            Sthread.read c.qaddr;
            if c.socket = my_sock then Some (prev, c) else scan c
      in
      match scan n with
      | Some (prev, local) ->
          (* detach [n .. prev] into the secondary queue *)
          prev.next <- None;
          Sthread.write_release prev.qaddr;
          stash t n prev;
          hand_to t ~local:true local
      | None ->
          if t.sec_head <> None then release_secondary t ~rest:(Some n)
          else hand_to t ~local:false n
    end
  end

let release t =
  let q = qnode_for t in
  Sthread.read q.qaddr;
  match q.next with
  | Some n -> pass t q.socket n
  | None -> (
      (* no linked successor: either the queue is empty or an arrival is
         between its tail swap and the link write *)
      Sthread.rmw t.tail_addr;
      match t.tail with
      | Some q' when q' == q -> (
          match t.sec_head with
          | None ->
              t.tail <- None;
              t.owner_tid <- -1
          | Some _ ->
              (* the main queue drains but remote waiters are parked on the
                 secondary queue: they become the new main queue *)
              t.tail <- t.sec_tail;
              release_secondary t ~rest:None)
      | Some _ | None ->
          let rec wait_link () =
            Sthread.read q.qaddr;
            if q.next = None then wait_link ()
          in
          wait_link ();
          pass t q.socket (Option.get q.next))

let held t = t.tail <> None
let owner t = if t.tail = None then None else Some t.owner_tid

(* Recovery: reset the lock wholesale. Only sound when the holder is known
   dead AND no live thread can be blocked in {!acquire} — DPS's direct
   mode qualifies, since it takes this lock through {!try_acquire}
   exclusively, which never joins the queue. A dead holder's qnode (and
   any dead waiters stranded behind it) are simply abandoned. The reset
   lands before the charged RMW, in the same atomic block as the caller's
   dead-holder check: resetting after it would let a second breaker that
   saw the same dead holder wipe out a live thread's fresh acquisition,
   leaving two holders and a release that waits forever for a link. *)
let break_lock t =
  if t.tail <> None then begin
    t.tail <- None;
    t.sec_head <- None;
    t.sec_tail <- None;
    t.local_streak <- 0;
    t.owner_tid <- -1;
    Sthread.rmw t.tail_addr
  end

let remote_transfers t = t.remote_transfers
let handoffs t = t.handoffs
