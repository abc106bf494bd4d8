module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc

type qnode = { qaddr : int; mutable locked : bool; mutable next : qnode option }

type t = {
  tail_addr : int;
  mutable tail : qnode option;
  qnodes : (int, qnode) Hashtbl.t;  (* logical thread id -> this thread's qnode *)
  alloc : Alloc.t;
}

let create alloc = { tail_addr = Alloc.line alloc; tail = None; qnodes = Hashtbl.create 64; alloc }

(* One queue node per (lock, thread); allocated lazily on the thread's own
   NUMA node so the waiter's spinning is socket-local. *)
let qnode_for t =
  let tid = if Sthread.in_sim () then Sthread.self_id () else -1 in
  match Hashtbl.find_opt t.qnodes tid with
  | Some q -> q
  | None ->
      let q = { qaddr = Alloc.line t.alloc; locked = false; next = None } in
      Hashtbl.add t.qnodes tid q;
      q

let acquire t =
  let q = qnode_for t in
  q.locked <- true;
  q.next <- None;
  Sthread.write q.qaddr;
  Sthread.rmw t.tail_addr;
  (* atomic swap of the tail pointer *)
  let pred = t.tail in
  t.tail <- Some q;
  match pred with
  | None -> ()
  | Some p ->
      p.next <- Some q;
      Sthread.write_release p.qaddr;
      (* every observation of the hand-off goes through a charged read: the
         read that sees locked=false is the acquire side of the releaser's
         releasing store *)
      let b = Backoff.create ~initial:16 ~cap:2048 () in
      let rec wait () =
        Sthread.read q.qaddr;
        if q.locked then begin
          Backoff.once b;
          wait ()
        end
      in
      wait ()

let release t =
  let q = qnode_for t in
  Sthread.read q.qaddr;
  match q.next with
  | Some n ->
      n.locked <- false;
      Sthread.write_release n.qaddr
  | None -> (
      (* try to swing tail back to empty *)
      Sthread.rmw t.tail_addr;
      match t.tail with
      | Some q' when q' == q -> t.tail <- None
      | Some _ | None ->
          (* a successor is between swap and link: wait for it to appear,
             observing the link through a charged (acquiring) read *)
          let rec wait_link () =
            Sthread.read q.qaddr;
            if q.next = None then wait_link ()
          in
          wait_link ();
          let n = Option.get q.next in
          n.locked <- false;
          Sthread.write_release n.qaddr)

let held t = t.tail <> None
