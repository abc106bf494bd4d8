(** Optimistic lock-based internal BST in the style of Bronson et al.
    (PPoPP'10) — the paper's [lb-b].

    Faithful to the stand-in level documented in DESIGN.md: lookups are
    optimistic store-free traversals validated by per-node OPTIK versions;
    updates lock the affected node; removal is partially external (nodes
    tombstone in place, as Bronson does for two-child nodes). Bronson's
    relaxed-balance rotations are modelled rather than replayed: each
    structural insert additionally locks and rewrites the parent, matching
    the rotation store traffic that makes [lb-b] expensive under update
    load, while [rebalance] (cold) restores the balanced shape the
    algorithm maintains and that wins read-heavy workloads. *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Optik = Dps_sync.Optik

type node = {
  key : int;
  mutable value : int;
  addr : int;
  lock : Optik.t;
  mutable present : bool;
  mutable left : node option;
  mutable right : node option;
}

type t = { alloc : Alloc.t; mutable root : node }

let name = "lb-b"

let mk_node alloc key value present =
  let addr = Alloc.line alloc in
  { key; value; addr; lock = Optik.embed ~addr; present; left = None; right = None }

let create alloc = { alloc; root = mk_node alloc min_int 0 false }

(* racy by design: optimistic store-free traversal; updates re-validate
   via the per-node OPTIK version before committing *)
let rec descend_from n key =
  Sthread.charge_read_racy n.addr;
  if key = n.key then begin
    Sthread.flush ();
    `Found n
  end
  else
    let child = if key < n.key then n.left else n.right in
    match child with
    | Some c -> descend_from c key
    | None ->
        Sthread.flush ();
        `Slot n

let rec insert t ~key ~value =
  Set_intf.check_key key;
  match descend_from t.root key with
  | `Found n ->
      if n.present then false
      else begin
        Optik.lock n.lock;
        let r =
          if n.present then false
          else begin
            n.value <- value;
            n.present <- true;
            true
          end
        in
        Optik.unlock n.lock;
        r
      end
  | `Slot p ->
      let v = Optik.get_version p.lock in
      if Optik.is_locked v then insert t ~key ~value
      else begin
        let n = mk_node t.alloc key value true in
        (* releasing init publish: [n] is lockable as a parent slot the
           moment the link lands, before this writer unlocks [p] *)
        Sthread.write_release n.addr;
        if Optik.try_lock_at p.lock v then begin
          let slot_free = if key < p.key then p.left = None else p.right = None in
          if slot_free then begin
            if key < p.key then p.left <- Some n else p.right <- Some n;
            (* model the relaxed-balance repair: a rotation rewrites the
               parent's links *)
            Sthread.write p.addr;
            Optik.unlock p.lock;
            true
          end
          else begin
            Optik.unlock p.lock;
            insert t ~key ~value
          end
        end
        else insert t ~key ~value
      end

let remove t key =
  Set_intf.check_key key;
  match descend_from t.root key with
  | `Slot _ -> false
  | `Found n ->
      if not n.present then false
      else begin
        Optik.lock n.lock;
        let r =
          if n.present then begin
            n.present <- false;
            true
          end
          else false
        in
        Optik.unlock n.lock;
        r
      end

let lookup t key =
  Set_intf.check_key key;
  match descend_from t.root key with
  | `Slot _ -> None
  | `Found n -> if n.present then Some n.value else None

let to_list t =
  let rec go acc n =
    let acc = match n.left with Some l -> go acc l | None -> acc in
    let acc = if n.present then (n.key, n.value) :: acc else acc in
    match n.right with Some r -> go acc r | None -> acc
  in
  List.rev (go [] t.root)

(* Cold-only: rebuild the tree perfectly balanced, standing in for the
   continuous rebalancing the real algorithm performs. *)
let rebalance t =
  assert (not (Sthread.in_sim ()));
  let entries = Array.of_list (to_list t) in
  let root = mk_node t.alloc min_int 0 false in
  let rec build lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let k, v = entries.(mid) in
      let n = mk_node t.alloc k v true in
      n.left <- build lo (mid - 1);
      n.right <- build (mid + 1) hi;
      Some n
    end
  in
  root.right <- build 0 (Array.length entries - 1);
  t.root <- root

let check_invariants t =
  let rec go lo hi n =
    if not (n.key >= lo && n.key < hi) then failwith "bst_bronson: key out of range";
    (match n.left with Some l -> go lo n.key l | None -> ());
    match n.right with Some r -> go n.key hi r | None -> ()
  in
  (match t.root.left with Some l -> go min_int t.root.key l | None -> ());
  match t.root.right with Some r -> go t.root.key max_int r | None -> ()

let populate t keys =
  Set_intf.balanced (insert t) keys;
  rebalance t
