(* B-link tree (Lehman & Yao [28 in the paper], the classic concurrent
   B+-tree): every node carries a high key and a right-sibling link, so
   readers descend without locks and recover from concurrent splits by
   following the link; writers lock one leaf (and parents bottom-up on
   splits). §3.3 uses B+-trees as the example of a range-optimised
   structure whose common API is still single-value insert/delete — which
   is what makes DPS applicable to it.

   Simplifications kept honest for the simulation: no node merging on
   underflow (deletes clear slots; standard for Lehman-Yao), parent splits
   take the same per-node locks. A node spans ceil(capacity/8) cache
   lines. *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Spinlock = Dps_sync.Spinlock

let order = 16 (* max keys per node *)

type node = {
  addr : int;
  lock : Spinlock.t;
  leaf : bool;
  mutable nkeys : int;
  keys : int array;  (* sorted; length order *)
  values : int array;  (* leaves only *)
  children : node option array;  (* internal only; length order + 1 *)
  mutable high : int;  (* exclusive upper bound of this node's range *)
  mutable right : node option;  (* B-link pointer *)
}

type t = {
  alloc : Alloc.t;
  grow_lock : Spinlock.t;  (* serializes root growth only *)
  mutable root : node;
  mutable height : int;
}

let name = "blink"

let node_lines = 1 + (order / 8)

let mk_node alloc ~leaf =
  let addr = Alloc.lines alloc node_lines in
  {
    addr;
    lock = Spinlock.embed ~addr;
    leaf;
    nkeys = 0;
    keys = Array.make order max_int;
    values = Array.make order 0;
    children = Array.make (order + 1) None;
    high = max_int;
    right = None;
  }

let create alloc =
  let leaf = mk_node alloc ~leaf:true in
  { alloc; grow_lock = Spinlock.create alloc; root = leaf; height = 1 }

(* racy by design: Lehman-Yao readers descend without locks and recover
   from concurrent splits via the high key and right link; writers
   re-validate ([chase], range checks) after locking *)
let touch n = Sthread.charge_read_racy n.addr

(* index of the first key >= key *)
let lower_bound n key =
  let rec go i = if i < n.nkeys && n.keys.(i) < key then go (i + 1) else i in
  go 0

(* Move right along B-link pointers until [key] is within the node's range. *)
let rec chase n key =
  if key >= n.high then
    match n.right with
    | Some r ->
        touch r;
        chase r key
    | None -> n
  else n

(* Descend to the leaf that covers [key], without locks. *)
let descend t key =
  touch t.root;
  let rec go n =
    let n = chase n key in
    if n.leaf then n
    else begin
      let i = lower_bound n key in
      let i = if i < n.nkeys && n.keys.(i) = key then i + 1 else i in
      match n.children.(i) with
      | Some c ->
          touch c;
          go c
      | None -> n (* malformed only transiently; treated as leaf-level stop *)
    end
  in
  let leaf = go t.root in
  Sthread.flush ();
  leaf

let lookup t key =
  let leaf = descend t key in
  let leaf = chase leaf key in
  Sthread.flush ();
  let i = lower_bound leaf key in
  if i < leaf.nkeys && leaf.keys.(i) = key then Some leaf.values.(i) else None

(* Insert (key, value/child) into a locked node at position [i]. *)
let insert_slot n i key value child =
  for j = n.nkeys downto i + 1 do
    n.keys.(j) <- n.keys.(j - 1);
    n.values.(j) <- n.values.(j - 1)
  done;
  if not n.leaf then
    for j = n.nkeys + 1 downto i + 2 do
      n.children.(j) <- n.children.(j - 1)
    done;
  n.keys.(i) <- key;
  n.values.(i) <- value;
  if not n.leaf then n.children.(i + 1) <- child;
  n.nkeys <- n.nkeys + 1;
  Sthread.write n.addr

(* Split a locked full node; returns (separator, new right node). *)
let split t n =
  let mid = order / 2 in
  let r = mk_node t.alloc ~leaf:n.leaf in
  let sep = n.keys.(mid) in
  if n.leaf then begin
    for j = mid to n.nkeys - 1 do
      r.keys.(j - mid) <- n.keys.(j);
      r.values.(j - mid) <- n.values.(j)
    done;
    r.nkeys <- n.nkeys - mid;
    n.nkeys <- mid
  end
  else begin
    (* separator moves up; right node gets keys after mid *)
    for j = mid + 1 to n.nkeys - 1 do
      r.keys.(j - mid - 1) <- n.keys.(j);
      r.values.(j - mid - 1) <- n.values.(j)
    done;
    for j = mid + 1 to n.nkeys do
      r.children.(j - mid - 1) <- n.children.(j);
      n.children.(j) <- None
    done;
    r.nkeys <- n.nkeys - mid - 1;
    n.nkeys <- mid
  end;
  r.high <- n.high;
  r.right <- n.right;
  n.high <- sep;
  n.right <- Some r;
  (* releasing publish: [r] is reachable (and lockable) the moment the
     right link lands, before this writer releases any lock *)
  Sthread.write_release r.addr;
  Sthread.write n.addr;
  (sep, r)

(* Find the parent of the node covering [sep] at level [lvl] (root = height). *)
let find_parent t sep lvl =
  let rec go n depth =
    let n = chase n sep in
    if depth = lvl + 1 then n
    else begin
      let i = lower_bound n sep in
      let i = if i < n.nkeys && n.keys.(i) = sep then i + 1 else i in
      match n.children.(i) with
      | Some c ->
          touch c;
          go c (depth - 1)
      | None -> n
    end
  in
  touch t.root;
  let p = go t.root t.height in
  Sthread.flush ();
  p

(* Propagate a split upward: insert (sep, right) into the parent at [lvl],
   splitting recursively; grow the tree at the root. *)
let rec complete_split t ~lvl ~sep ~right ~from =
  if lvl >= t.height then begin
    (* split reached the root: grow (serialized; re-check under the lock) *)
    Spinlock.acquire t.grow_lock;
    if lvl >= t.height then begin
      let new_root = mk_node t.alloc ~leaf:false in
      new_root.nkeys <- 1;
      new_root.keys.(0) <- sep;
      new_root.children.(0) <- Some from;
      new_root.children.(1) <- Some right;
      (* releasing publish: the new root is reachable immediately *)
      Sthread.write_release new_root.addr;
      t.root <- new_root;
      t.height <- t.height + 1;
      Spinlock.release t.grow_lock
    end
    else begin
      (* a concurrent grow created our level's parent; insert normally *)
      Spinlock.release t.grow_lock;
      complete_split t ~lvl ~sep ~right ~from
    end
  end
  else begin
    let p = find_parent t sep lvl in
    Spinlock.acquire p.lock;
    (* p may have split while we were acquiring; retry if sep moved right *)
    if sep >= p.high then begin
      Spinlock.release p.lock;
      complete_split t ~lvl ~sep ~right ~from
    end
    else begin
      let i = lower_bound p sep in
      insert_slot p i sep 0 (Some right);
      if p.nkeys = order then begin
        let sep', right' = split t p in
        Spinlock.release p.lock;
        complete_split t ~lvl:(lvl + 1) ~sep:sep' ~right:right' ~from:p
      end
      else Spinlock.release p.lock
    end
  end

let rec insert t ~key ~value =
  let leaf = descend t key in
  Spinlock.acquire leaf.lock;
  let leaf' = chase leaf key in
  if leaf' != leaf then begin
    Spinlock.release leaf.lock;
    insert t ~key ~value
  end
  else begin
    let i = lower_bound leaf key in
    if i < leaf.nkeys && leaf.keys.(i) = key then begin
      Spinlock.release leaf.lock;
      false
    end
    else begin
      insert_slot leaf i key value None;
      if leaf.nkeys = order then begin
        let sep, right = split t leaf in
        Spinlock.release leaf.lock;
        complete_split t ~lvl:1 ~sep ~right ~from:leaf
      end
      else Spinlock.release leaf.lock;
      true
    end
  end

let rec remove t key =
  let leaf = descend t key in
  Spinlock.acquire leaf.lock;
  let leaf' = chase leaf key in
  if leaf' != leaf then begin
    Spinlock.release leaf.lock;
    remove t key
  end
  else begin
    let i = lower_bound leaf key in
    if i < leaf.nkeys && leaf.keys.(i) = key then begin
      for j = i to leaf.nkeys - 2 do
        leaf.keys.(j) <- leaf.keys.(j + 1);
        leaf.values.(j) <- leaf.values.(j + 1)
      done;
      leaf.nkeys <- leaf.nkeys - 1;
      leaf.keys.(leaf.nkeys) <- max_int;
      Sthread.write leaf.addr;
      Spinlock.release leaf.lock;
      true
    end
    else begin
      Spinlock.release leaf.lock;
      false
    end
  end

(* Leftmost leaf, then walk the leaf level through the B-link pointers. *)
let leftmost t =
  let rec go n = if n.leaf then n else match n.children.(0) with Some c -> go c | None -> n in
  go t.root

let to_list t =
  let out = ref [] in
  let rec walk n =
    for i = n.nkeys - 1 downto 0 do
      out := (n.keys.(i), n.values.(i)) :: !out
    done;
    match n.right with Some r -> walk_right r | None -> ()
  and walk_right n =
    for i = n.nkeys - 1 downto 0 do
      out := (n.keys.(i), n.values.(i)) :: !out
    done;
    match n.right with Some r -> walk_right r | None -> ()
  in
  walk (leftmost t);
  List.sort compare !out

let check_invariants t =
  (* leaf chain sorted and within high-key bounds; internal routing sane *)
  let rec chain n prev =
    for i = 0 to n.nkeys - 1 do
      if n.keys.(i) <= !prev then failwith "blink: leaf keys not increasing";
      if n.keys.(i) >= n.high then failwith "blink: key above high key";
      prev := n.keys.(i)
    done;
    match n.right with Some r -> chain r prev | None -> ()
  in
  chain (leftmost t) (ref min_int);
  let rec depth_check n =
    if n.leaf then 1
    else begin
      let d = ref 0 in
      for i = 0 to n.nkeys do
        match n.children.(i) with
        | Some c ->
            let dc = depth_check c in
            if !d = 0 then d := dc
            else if !d <> dc then failwith "blink: uneven depth"
        | None -> ()
      done;
      !d + 1
    end
  in
  ignore (depth_check t.root)

let maintenance _ = ()
