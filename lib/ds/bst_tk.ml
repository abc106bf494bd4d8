(** BST-TK-style external binary search tree (David, Guerraoui & Trigonakis,
    ASPLOS'15) — lock-based, with ticket locks on internal nodes.

    The tree is external: values live only in leaves; internal nodes route.
    Lookups are store-free traversals. Updates lock the affected internal
    node(s) and re-validate the links before mutating. This is also the
    structure DPS uses inside each locality for the bst experiments. *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Ticket = Dps_sync.Ticket

type tree = Leaf of leaf | Node of internal
and leaf = { lkey : int; mutable lvalue : int; laddr : int }

and internal = {
  key : int;
  addr : int;
  lock : Ticket.t;
  mutable removed : bool;
  mutable left : tree;
  mutable right : tree;
}

type t = { alloc : Alloc.t; super : internal }

let name = "bst-tk"

let mk_leaf alloc k v = { lkey = k; lvalue = v; laddr = Alloc.line alloc }

let mk_internal alloc key left right =
  let addr = Alloc.line alloc in
  { key; addr; lock = Ticket.embed ~addr; removed = false; left; right }

(* Super-root guarantees every real leaf has both a parent and a
   grandparent. Real keys lie strictly between the sentinels. *)
let create alloc =
  let l_min = Leaf (mk_leaf alloc min_int 0) in
  let l_inf = Leaf (mk_leaf alloc max_int 0) in
  let root = mk_internal alloc max_int l_min l_inf in
  { alloc; super = mk_internal alloc max_int (Node root) (Leaf (mk_leaf alloc max_int 0)) }

(* Route: key < node.key goes left. Returns (grandparent, parent, leaf). *)
let search t key =
  (* racy by design: store-free traversal; updaters re-validate the links
     under the node ticket locks before mutating *)
  Sthread.charge_read_racy t.super.addr;
  let rec go gp p cur =
    match cur with
    | Leaf l ->
        Sthread.charge_read_racy l.laddr;
        Sthread.flush ();
        (gp, p, l)
    | Node n ->
        Sthread.charge_read_racy n.addr;
        go p n (if key < n.key then n.left else n.right)
  in
  go t.super t.super t.super.left

let child_is p l = match (p.left, p.right) with
  | Leaf l', _ when l' == l -> true
  | _, Leaf l' when l' == l -> true
  | _ -> false

let replace_child p ~old_ ~new_ =
  match p.left with
  | Leaf l when l == old_ -> p.left <- new_
  | _ -> (
      match p.right with
      | Leaf l when l == old_ -> p.right <- new_
      | _ -> assert false)

let node_is p n = (match p.left with Node n' -> n' == n | Leaf _ -> false)
  || (match p.right with Node n' -> n' == n | Leaf _ -> false)

let rec insert t ~key ~value =
  Set_intf.check_key key;
  let _, p, l = search t key in
  if l.lkey = key then false
  else begin
    Ticket.acquire p.lock;
    if p.removed || not (child_is p l) then begin
      Ticket.release p.lock;
      insert t ~key ~value
    end
    else begin
      let nl = mk_leaf t.alloc key value in
      Sthread.write nl.laddr;
      let ni =
        if key < l.lkey then mk_internal t.alloc l.lkey (Leaf nl) (Leaf l)
        else mk_internal t.alloc key (Leaf l) (Leaf nl)
      in
      (* releasing init publish: [ni] is lockable as a parent the moment
         the link lands, before this writer releases [p.lock] *)
      Sthread.write_release ni.addr;
      replace_child p ~old_:l ~new_:(Node ni);
      Sthread.write p.addr;
      Ticket.release p.lock;
      true
    end
  end

let rec remove t key =
  Set_intf.check_key key;
  let gp, p, l = search t key in
  if l.lkey <> key then false
  else begin
    Ticket.acquire gp.lock;
    Ticket.acquire p.lock;
    let valid = (not gp.removed) && (not p.removed) && node_is gp p && child_is p l in
    if not valid then begin
      Ticket.release p.lock;
      Ticket.release gp.lock;
      remove t key
    end
    else begin
      let sibling = match p.left with Leaf l' when l' == l -> p.right | _ -> p.left in
      p.removed <- true;
      Sthread.write p.addr;
      (match gp.left with
      | Node n when n == p -> gp.left <- sibling
      | _ -> gp.right <- sibling);
      Sthread.write gp.addr;
      Ticket.release p.lock;
      Ticket.release gp.lock;
      true
    end
  end

let lookup t key =
  Set_intf.check_key key;
  let _, _, l = search t key in
  if l.lkey = key then Some l.lvalue else None

let sentinel k = k = min_int || k = max_int

let to_list t =
  let rec go acc = function
    | Leaf l -> if sentinel l.lkey then acc else (l.lkey, l.lvalue) :: acc
    | Node n -> go (go acc n.right) n.left
  in
  go [] (Node t.super)

let check_invariants t =
  (* External-tree ordering: every leaf under an internal respects routing. *)
  let rec go lo hi = function
    | Leaf l ->
        if not (sentinel l.lkey) && not (l.lkey >= lo && l.lkey < hi) then
          failwith "bst_tk: leaf out of routing range"
    | Node n ->
        if n.removed then failwith "bst_tk: reachable removed internal";
        go lo n.key n.left;
        go n.key hi n.right
  in
  go min_int max_int t.super.left

let populate t keys = Set_intf.balanced (insert t) keys
