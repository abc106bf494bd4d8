(** Sorted linked list protected by the {!Rlu} runtime — the paper's [rlu]
    list. Reads traverse inside an RLU read section with no shared stores;
    updates try-lock the affected nodes (aborting and retrying on conflict,
    as rlu_abort does) and pay a full grace period before returning. *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Spinlock = Dps_sync.Spinlock

type node = {
  key : int;
  mutable value : int;
  addr : int;
  lock : Spinlock.t;
  mutable removed : bool;
  mutable next : node;
}

type t = { alloc : Alloc.t; rlu : Rlu.t; head : node }

let name = "rlu"

let mk_node alloc key value next =
  let addr = Alloc.line alloc in
  { key; value; addr; lock = Spinlock.embed ~addr; removed = false; next }

(* The tail links to itself: every node has a successor. *)
let create alloc =
  let addr = Alloc.line alloc in
  let rec tail =
    { key = max_int; value = 0; addr; lock = Spinlock.embed ~addr; removed = false; next = tail }
  in
  { alloc; rlu = Rlu.create alloc; head = mk_node alloc min_int 0 tail }

let search t key =
  (* racy by design: RLU read sections run concurrently with writers (the
     grace period, not ordering, protects readers); updaters re-validate
     after try-locking *)
  Sthread.charge_read_racy t.head.addr;
  let rec go pred =
    let curr = pred.next in
    Sthread.charge_read_racy curr.addr;
    if curr.key >= key then (pred, curr) else go curr
  in
  let r = go t.head in
  Sthread.flush ();
  r

let lookup t key =
  Set_intf.check_key key;
  Rlu.reader_lock t.rlu;
  let _, curr = search t key in
  let r = if curr.key = key && not curr.removed then Some curr.value else None in
  Rlu.reader_unlock t.rlu;
  r

let rec insert t ~key ~value =
  Set_intf.check_key key;
  Rlu.reader_lock t.rlu;
  let pred, curr = search t key in
  if curr.key = key then begin
    Rlu.reader_unlock t.rlu;
    false
  end
  else if not (Spinlock.try_acquire pred.lock) then begin
    (* rlu_abort: end the section and retry *)
    Rlu.reader_unlock t.rlu;
    Sthread.work 64;
    insert t ~key ~value
  end
  else if pred.removed || pred.next != curr then begin
    Spinlock.release pred.lock;
    Rlu.reader_unlock t.rlu;
    insert t ~key ~value
  end
  else begin
    let n = mk_node t.alloc key value curr in
    (* releasing init publish: [n] is try-lockable as a predecessor the
       moment the link lands, before this writer releases [pred.lock] *)
    Sthread.write_release n.addr;
    pred.next <- n;
    Sthread.write pred.addr;
    Rlu.writer_end_and_synchronize t.rlu;
    Spinlock.release pred.lock;
    true
  end

let rec remove t key =
  Set_intf.check_key key;
  Rlu.reader_lock t.rlu;
  let pred, curr = search t key in
  if curr.key <> key || curr.removed then begin
    Rlu.reader_unlock t.rlu;
    false
  end
  else if not (Spinlock.try_acquire pred.lock) then begin
    Rlu.reader_unlock t.rlu;
    Sthread.work 64;
    remove t key
  end
  else if not (Spinlock.try_acquire curr.lock) then begin
    Spinlock.release pred.lock;
    Rlu.reader_unlock t.rlu;
    Sthread.work 64;
    remove t key
  end
  else if pred.removed || curr.removed || pred.next != curr then begin
    Spinlock.release curr.lock;
    Spinlock.release pred.lock;
    Rlu.reader_unlock t.rlu;
    remove t key
  end
  else begin
    curr.removed <- true;
    Sthread.write curr.addr;
    pred.next <- curr.next;
    Sthread.write pred.addr;
    (* grace period before the node may be reclaimed *)
    Rlu.writer_end_and_synchronize t.rlu;
    Spinlock.release curr.lock;
    Spinlock.release pred.lock;
    true
  end

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
      if c.key <= prev then failwith "rlu_list: keys not strictly increasing";
      if c.removed then failwith "rlu_list: reachable removed node";
      go c.key c
    end
  in
  go min_int t.head

let populate t keys = Set_intf.descending (insert t) keys
