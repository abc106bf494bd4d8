(** Michael's lock-free linked list (SPAA'02) — the paper's [lf-m].

    The published algorithm packs a mark bit into each node's next pointer;
    here the pair (next, marked) lives in the node record and every compare
    and swap on it is a charged atomic on the node's cache line, with the
    comparison and mutation performed at a single scheduling point. Searches
    physically unlink marked nodes they encounter, as in the original. *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc

type node = {
  key : int;
  mutable value : int;
  addr : int;
  mutable marked : bool;
  mutable next : node;
}

type t = { alloc : Alloc.t; head : node }

let name = "lf-m"

let mk_node alloc key value next =
  { key; value; addr = Alloc.line alloc; marked = false; next }

(* The tail links to itself: every node has a successor. *)
let create alloc =
  let addr = Alloc.line alloc in
  let rec tail = { key = max_int; value = 0; addr; marked = false; next = tail } in
  { alloc; head = mk_node alloc min_int 0 tail }

(* Test-only mutation (lib/check self-test): when set, a failed insert CAS
   gives up instead of retrying, silently dropping the insert. *)
let failpoint_drop_cas_retry = ref false

(* CAS of [n]'s (next, marked) pair. [expect] is the node [n.next] is
   expected to point at (nodes are unique, so compared physically). *)
let cas_next n ~expect ~expect_marked ~next ~marked =
  Sthread.rmw n.addr;
  if n.next == expect && n.marked = expect_marked then begin
    n.next <- next;
    n.marked <- marked;
    true
  end
  else false

exception Restart

(* Find (pred, curr) with pred.key < key <= curr.key, unlinking any marked
   nodes seen on the way. Restarts if an unlink CAS fails. *)
let rec search t key =
  try
    Sthread.charge_read t.head.addr;
    let rec go pred =
      let curr = pred.next in
      Sthread.charge_read curr.addr;
      if curr.marked then begin
        Sthread.flush ();
        (* help unlink; pred must still be unmarked and point at curr *)
        if not (cas_next pred ~expect:curr ~expect_marked:false ~next:curr.next ~marked:false)
        then raise Restart;
        go pred
      end
      else if curr.key >= key then (pred, curr)
      else go curr
    in
    let r = go t.head in
    Sthread.flush ();
    r
  with Restart -> search t key

let rec insert t ~key ~value =
  Set_intf.check_key key;
  let pred, curr = search t key in
  if curr.key = key then false
  else begin
    let n = mk_node t.alloc key value curr in
    Sthread.write n.addr;
    if cas_next pred ~expect:curr ~expect_marked:false ~next:n ~marked:false then true
    else if !failpoint_drop_cas_retry then false
    else insert t ~key ~value
  end

let rec remove t key =
  Set_intf.check_key key;
  let _, curr = search t key in
  if curr.key <> key then false
  else begin
    (* logical delete: mark curr (linearization point) *)
    let succ = curr.next in
    if cas_next curr ~expect:succ ~expect_marked:false ~next:succ ~marked:true then begin
      (* physical unlink is best-effort; searches will finish the job *)
      ignore (search t key);
      true
    end
    else remove t key
  end

(* Wait-free in the original sense: a plain traversal with a final check. *)
let lookup t key =
  Set_intf.check_key key;
  Sthread.charge_read t.head.addr;
  let rec go n =
    let curr = n.next in
    Sthread.charge_read curr.addr;
    if curr.key >= key then curr else go curr
  in
  let curr = go t.head in
  Sthread.flush ();
  if curr.key = key && not curr.marked then Some curr.value else None

let to_list t =
  let rec go acc n =
    let c = n.next in
    if c.key = max_int then List.rev acc
    else go (if c.marked then acc else (c.key, c.value) :: acc) c
  in
  go [] t.head

let check_invariants t =
  (* a self-linked node other than the tail fails the ordering check *)
  let rec go prev n =
    if n.key <> max_int then begin
      let c = n.next in
      if c.key <= prev then failwith "ll_michael: keys not strictly increasing";
      go c.key c
    end
  in
  go min_int t.head

let populate t keys = Set_intf.descending (insert t) keys
