(** Linked list built with the OPTIK pattern (Guerraoui & Trigonakis,
    PPoPP'16): optimistic unsynchronized traversal, then a version-validating
    try-lock on the predecessor replaces the usual lock-then-validate dance. *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Optik = Dps_sync.Optik

type node = {
  key : int;
  mutable value : int;
  addr : int;
  lock : Optik.t;
  mutable removed : bool;
  mutable next : node;
}

type t = { alloc : Alloc.t; head : node }

let name = "optik"

let mk_node alloc key value next =
  let addr = Alloc.line alloc in
  { key; value; addr; lock = Optik.embed ~addr; removed = false; next }

(* The tail links to itself: every node has a successor. *)
let create alloc =
  let addr = Alloc.line alloc in
  let rec tail =
    { key = max_int; value = 0; addr; lock = Optik.embed ~addr; removed = false; next = tail }
  in
  { alloc; head = mk_node alloc min_int 0 tail }

(* Traverse reading each pred's version *before* its next pointer, so an
   unchanged version at lock time proves the link we followed still holds. *)
let search t key =
  let rec go pred vpred =
    let curr = pred.next in
    Sthread.charge_read curr.addr;
    if curr.key >= key then begin
      Sthread.flush ();
      (pred, vpred, curr)
    end
    else go curr (Optik.get_version curr.lock)
  in
  go t.head (Optik.get_version t.head.lock)

(* A version-validated lock does not prove the predecessor is still in the
   list: a traversal may reach a node after it was unlinked and its remover
   already released the lock (the version is stable again). Re-checking
   [removed] *after* acquiring is sound — a held lock blocks any remover. *)
let rec insert t ~key ~value =
  Set_intf.check_key key;
  let pred, vpred, curr = search t key in
  if curr.key = key && not curr.removed then false
  else if curr.key = key then (* concurrently removed; wait out the unlink *)
    insert t ~key ~value
  else if Optik.try_lock_at pred.lock vpred then
    if pred.removed then begin
      Optik.unlock pred.lock;
      insert t ~key ~value
    end
    else begin
      let n = mk_node t.alloc key value curr in
      Sthread.write n.addr;
      pred.next <- n;
      (* the unlock's version bump publishes the change *)
      Optik.unlock pred.lock;
      true
    end
  else insert t ~key ~value

let rec remove t key =
  Set_intf.check_key key;
  let pred, vpred, curr = search t key in
  if curr.key <> key then false
  else begin
    let vcurr = Optik.get_version curr.lock in
    if curr.removed then false
    else if Optik.try_lock_at pred.lock vpred then
      if Optik.try_lock_at curr.lock vcurr then begin
        if pred.removed || curr.removed then begin
          Optik.unlock curr.lock;
          Optik.unlock pred.lock;
          remove t key
        end
        else begin
          curr.removed <- true;
          pred.next <- curr.next;
          Optik.unlock curr.lock;
          Optik.unlock pred.lock;
          true
        end
      end
      else begin
        Optik.unlock pred.lock;
        remove t key
      end
    else remove t key
  end

let lookup t key =
  Set_intf.check_key key;
  let _, _, curr = search t key in
  if curr.key = key && not curr.removed then Some curr.value else None

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
      if c.key <= prev then failwith "ll_optik: keys not strictly increasing";
      if c.removed then failwith "ll_optik: reachable removed node";
      go c.key c
    end
  in
  go min_int t.head

let populate t keys = Set_intf.descending (insert t) keys
