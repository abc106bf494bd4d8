module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Mcs = Dps_sync.Mcs

type node = { key : int; mutable value : int; addr : int; mutable next : node option }

type t = { alloc : Alloc.t; rt : Parsec.t; wlock : Mcs.t; head : node }

let name = "parsec-ll"

let mk_node alloc key value next = { key; value; addr = Alloc.line alloc; next }

let create alloc =
  let tail = mk_node alloc max_int 0 None in
  {
    alloc;
    rt = Parsec.create alloc;
    wlock = Mcs.create alloc;
    head = mk_node alloc min_int 0 (Some tail);
  }

(* Traversal is safe under quiescence: a concurrently unlinked node still
   points into the list, and it cannot be reclaimed until we exit. *)
(* racy by design: readers traverse inside a ParSec section concurrently
   with the serialized writer; quiescence (not ordering) keeps unlinked
   nodes alive until every reader exits *)
let search t key =
  Sthread.charge_read_racy t.head.addr;
  let rec go pred =
    let curr = Option.get pred.next in
    Sthread.charge_read_racy curr.addr;
    if curr.key >= key then (pred, curr) else go curr
  in
  let r = go t.head in
  Sthread.flush ();
  r

let lookup t key =
  Parsec.enter t.rt;
  let _, curr = search t key in
  let r = if curr.key = key then Some curr.value else None in
  Parsec.exit t.rt;
  r

(* The single writer lock serializes updates (the paper names this as the
   reason the ParSec list degrades with update ratio in Figure 10(c)). *)
let insert t ~key ~value =
  Mcs.acquire t.wlock;
  let pred, curr = search t key in
  let result =
    if curr.key = key then false
    else begin
      let n = mk_node t.alloc key value (Some curr) in
      Sthread.write n.addr;
      pred.next <- Some n;
      Sthread.write pred.addr;
      true
    end
  in
  Mcs.release t.wlock;
  result

let remove t key =
  Mcs.acquire t.wlock;
  let pred, curr = search t key in
  let result =
    if curr.key <> key then false
    else begin
      pred.next <- curr.next;
      Sthread.write pred.addr;
      (* grace period before the node's memory may be reused *)
      Parsec.quiesce t.rt;
      true
    end
  in
  Mcs.release t.wlock;
  result

let to_list t =
  let rec go acc n =
    match n.next with
    | None -> List.rev acc
    | Some c -> if c.key = max_int then List.rev acc else go ((c.key, c.value) :: acc) c
  in
  go [] t.head

let check_invariants t =
  let rec go prev n =
    match n.next with
    | None -> if n.key <> max_int then failwith "parsec_list: missing tail sentinel"
    | Some c ->
        if c.key <= prev then failwith "parsec_list: keys not strictly increasing";
        go c.key c
  in
  go min_int t.head

let populate t keys = Dps_ds.Set_intf.descending (insert t) keys
