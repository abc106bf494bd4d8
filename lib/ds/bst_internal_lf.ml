(** Lock-free internal binary search tree with logical deletion.

    Reproduction stand-in for the paper's [lf-h] (Howley & Jones, SPAA'12),
    which is also an internal non-blocking tree: values live in internal
    nodes, removal tombstones the node in place with a CAS and leaves it as
    a routing node, and insertion either revives a tombstone or CAS-links a
    fresh node under its parent. This keeps Howley's characteristic cost
    profile — cheap in-place updates, read-only lookups, trees that only
    grow structurally. *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc

type node = {
  key : int;
  mutable value : int;
  addr : int;
  mutable present : bool;
  mutable left : node option;
  mutable right : node option;
}

type t = { alloc : Alloc.t; root : node }

let name = "lf-h"

let mk_node alloc key value present =
  { key; value; addr = Alloc.line alloc; present; left = None; right = None }

let create alloc = { alloc; root = mk_node alloc min_int 0 false }

(* Descend to the node holding [key], or to the parent under which it
   belongs. Pure charged reads. *)
let rec descend_from n key =
  Sthread.charge_read n.addr;
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
  match descend_from t.root key with
  | `Found n ->
      if n.present then false
      else begin
        (* revive the tombstone *)
        Sthread.rmw n.addr;
        if n.present then false
        else begin
          n.value <- value;
          n.present <- true;
          true
        end
      end
  | `Slot p ->
      let n = mk_node t.alloc key value true in
      Sthread.write n.addr;
      Sthread.rmw p.addr;
      let slot_free = if key < p.key then p.left = None else p.right = None in
      if slot_free then begin
        if key < p.key then p.left <- Some n else p.right <- Some n;
        true
      end
      else (* lost the race: retry from the parent's new child *)
        insert t ~key ~value

let remove t key =
  match descend_from t.root key with
  | `Slot _ -> false
  | `Found n ->
      if not n.present then false
      else begin
        Sthread.rmw n.addr;
        if n.present then begin
          n.present <- false;
          true
        end
        else false
      end

let lookup t key =
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

let check_invariants t =
  let rec go lo hi n =
    if not (n.key >= lo && n.key < hi) then failwith "bst_internal_lf: key out of range";
    (match n.left with Some l -> go lo n.key l | None -> ());
    match n.right with Some r -> go n.key hi r | None -> ()
  in
  (match t.root.left with Some l -> go min_int t.root.key l | None -> ());
  match t.root.right with Some r -> go t.root.key max_int r | None -> ()

let populate t keys = Set_intf.balanced (insert t) keys
