(** Lazy concurrent list-based set (Heller et al., OPODIS'05) — the paper's
    [lb-l]. Wait-free unsynchronized traversal, per-node spinlocks embedded
    in the node's cache line, logical marking before physical unlink,
    post-lock validation. *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Spinlock = Dps_sync.Spinlock

type node = {
  key : int;
  mutable value : int;
  addr : int;
  lock : Spinlock.t;
  mutable marked : bool;
  mutable next : node;
}

type t = { alloc : Alloc.t; head : node }

let name = "lb-l"

let mk_node alloc key value next =
  let addr = Alloc.line alloc in
  { key; value; addr; lock = Spinlock.embed ~addr; marked = false; next }

(* The tail links to itself: every node has a successor. *)
let create alloc =
  let addr = Alloc.line alloc in
  let rec tail =
    { key = max_int; value = 0; addr; lock = Spinlock.embed ~addr; marked = false; next = tail }
  in
  { alloc; head = mk_node alloc min_int 0 tail }

(* Unsynchronized traversal: returns (pred, curr) with
   pred.key < key <= curr.key. Both may be stale; callers validate. *)
let search t key =
  Sthread.charge_read_racy t.head.addr;
  let rec go pred =
    let curr = pred.next in
    Sthread.charge_read_racy curr.addr;
    if curr.key >= key then (pred, curr) else go curr
  in
  go t.head

let validate pred curr = (not pred.marked) && (not curr.marked) && pred.next == curr

let rec insert t ~key ~value =
  Set_intf.check_key key;
  let pred, curr = search t key in
  Sthread.flush ();
  Spinlock.acquire pred.lock;
  Spinlock.acquire curr.lock;
  if validate pred curr then begin
    let result =
      if curr.key = key then false
      else begin
        let n = mk_node t.alloc key value curr in
        (* releasing init publish: [n] is lockable as a predecessor the
           moment the link lands, before this writer releases its locks *)
        Sthread.write_release n.addr;
        pred.next <- n;
        Sthread.write pred.addr;
        true
      end
    in
    Spinlock.release curr.lock;
    Spinlock.release pred.lock;
    result
  end
  else begin
    Spinlock.release curr.lock;
    Spinlock.release pred.lock;
    insert t ~key ~value
  end

let rec remove t key =
  Set_intf.check_key key;
  let pred, curr = search t key in
  Sthread.flush ();
  if curr.key <> key then false
  else begin
    Spinlock.acquire pred.lock;
    Spinlock.acquire curr.lock;
    if validate pred curr then begin
      let result =
        if curr.key <> key then false
        else begin
          curr.marked <- true;
          Sthread.write curr.addr;
          pred.next <- curr.next;
          Sthread.write pred.addr;
          true
        end
      in
      Spinlock.release curr.lock;
      Spinlock.release pred.lock;
      result
    end
    else begin
      Spinlock.release curr.lock;
      Spinlock.release pred.lock;
      remove t key
    end
  end

(* Wait-free: no locks, no retries. *)
let lookup t key =
  Set_intf.check_key key;
  let _, curr = search t key in
  Sthread.flush ();
  if curr.key = key && not curr.marked then Some curr.value else None

let to_list t =
  let rec go acc n =
    let c = n.next in
    if c.key = max_int then List.rev acc else go ((c.key, c.value) :: acc) c
  in
  go [] t.head

let check_invariants t =
  (* a self-linked node other than the tail fails the ordering check *)
  let rec go prev n =
    if n.key <> max_int then begin
      let c = n.next in
      if c.key <= prev then failwith "ll_lazy: keys not strictly increasing";
      if c.marked then failwith "ll_lazy: reachable marked node";
      go c.key c
    end
  in
  go min_int t.head

let populate t keys = Set_intf.descending (insert t) keys
