(** Non-blocking external binary search tree in the style of Ellen, Fatourou,
    Ruppert & van Breugel (PODC'10). Reproduction stand-in for the paper's
    [lf-n] (Natarajan & Mittal), which is an edge-based refinement of the
    same design: an external tree whose updates coordinate through
    flag/mark descriptors CAS'd into the internal nodes, with helping.

    Update words are fresh records per transition, so physical equality of
    the record doubles as the modification stamp the original uses to avoid
    ABA. *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc

(* The [stamp] makes every update record a distinct heap block: an
   immutable constant like a bare Clean would be shared by the compiler,
   re-introducing exactly the ABA the original algorithm's modification
   stamps prevent. *)
type update = { state : state; stamp : int }

and state =
  | Clean
  | IFlag of iinfo
  | DFlag of dinfo
  | Mark of dinfo

and iinfo = { ip : internal; il : leaf; inew : internal }
and dinfo = { dgp : internal; dp : internal; dl : leaf; dpupdate : update }
and tree = Leaf of leaf | Node of internal
and leaf = { lkey : int; mutable lvalue : int; laddr : int }

and internal = {
  key : int;
  addr : int;
  mutable upd : update;
  mutable left : tree;
  mutable right : tree;
}

type t = { alloc : Alloc.t; root : internal }

let name = "lf-n"

(* Sentinels: inf2 = max_int, inf1 = max_int - 1; real keys < inf1. *)
let inf1 = max_int - 1
let inf2 = max_int

let mk_leaf alloc k v = { lkey = k; lvalue = v; laddr = Alloc.line alloc }

(* The stamp only defeats static sharing of constant records — update
   descriptors are compared by physical identity, never by stamp value —
   so it needs freshness, not global uniqueness. Domain-local state keeps
   concurrent experiment points (one simulation per domain) from racing on
   a shared counter; records from different simulations never meet. *)
let stamp_counter_key = Domain.DLS.new_key (fun () -> ref 0)

let mk_update state =
  let c = Domain.DLS.get stamp_counter_key in
  incr c;
  { state; stamp = !c }

let mk_internal alloc key left right =
  { key; addr = Alloc.line alloc; upd = mk_update Clean; left; right }

(* Root (key inf2) with sentinel leaves inf1/inf2: the first real insert
   replaces the inf1 leaf, so real leaves always sit at depth >= 2 and a
   delete always finds a grandparent. *)
let create alloc =
  {
    alloc;
    root = mk_internal alloc inf2 (Leaf (mk_leaf alloc inf1 0)) (Leaf (mk_leaf alloc inf2 0));
  }

(* All CASes: one charged atomic on the owner's line; the compare and the
   mutation happen together at the resume point. *)
let cas_upd n ~expect ~state' =
  Sthread.rmw n.addr;
  if n.upd == expect then begin
    n.upd <- mk_update state';
    true
  end
  else false

(* Trees are compared by the identity of the leaf/internal record they wrap
   (never by the option-like constructor block, which is fresh per use). *)
let tree_is a b =
  match (a, b) with
  | Leaf x, Leaf y -> x == y
  | Node x, Node y -> x == y
  | Leaf _, Node _ | Node _, Leaf _ -> false

let cas_child p ~old_ ~new_ =
  Sthread.rmw p.addr;
  if tree_is p.left old_ then begin
    p.left <- new_;
    true
  end
  else if tree_is p.right old_ then begin
    p.right <- new_;
    true
  end
  else false

type found = {
  gp : internal option;
  gpupd : update;
  p : internal;
  pupd : update;
  l : leaf;
}

let search t key =
  Sthread.charge_read t.root.addr;
  let rec go gp gpupd p pupd cur =
    match cur with
    | Leaf l ->
        Sthread.charge_read l.laddr;
        Sthread.flush ();
        { gp; gpupd; p; pupd; l }
    | Node n ->
        Sthread.charge_read n.addr;
        let u = n.upd in
        go (Some p) pupd n u (if key < n.key then n.left else n.right)
  in
  go None t.root.upd t.root t.root.upd (if key < t.root.key then t.root.left else t.root.right)

let help_insert op =
  ignore (cas_child op.ip ~old_:(Leaf op.il) ~new_:(Node op.inew));
  (* unflag *)
  Sthread.rmw op.ip.addr;
  (match op.ip.upd.state with
  | IFlag op' when op' == op -> op.ip.upd <- mk_update Clean
  | Clean | IFlag _ | DFlag _ | Mark _ -> ())

let help_marked op =
  let other =
    match op.dp.left with Leaf l when l == op.dl -> op.dp.right | _ -> op.dp.left
  in
  ignore (cas_child op.dgp ~old_:(Node op.dp) ~new_:other);
  Sthread.rmw op.dgp.addr;
  match op.dgp.upd.state with
  | DFlag op' when op' == op -> op.dgp.upd <- mk_update Clean
  | Clean | IFlag _ | DFlag _ | Mark _ -> ()

let help_delete op =
  if cas_upd op.dp ~expect:op.dpupdate ~state':(Mark op) then begin
    help_marked op;
    true
  end
  else begin
    Sthread.read op.dp.addr;
    match op.dp.upd.state with
    | Mark op' when op' == op ->
        help_marked op;
        true
    | Clean | IFlag _ | DFlag _ | Mark _ ->
        (* backtrack: unflag the grandparent *)
        Sthread.rmw op.dgp.addr;
        (match op.dgp.upd.state with
        | DFlag op' when op' == op -> op.dgp.upd <- mk_update Clean
        | Clean | IFlag _ | DFlag _ | Mark _ -> ());
        false
  end

let help u =
  match u.state with
  | IFlag op -> help_insert op
  | Mark op -> help_marked op
  | DFlag op -> ignore (help_delete op)
  | Clean -> ()

let rec insert t ~key ~value =
  let s = search t key in
  if s.l.lkey = key then false
  else if s.pupd.state <> Clean then begin
    help s.pupd;
    insert t ~key ~value
  end
  else begin
    let nl = mk_leaf t.alloc key value in
    Sthread.write nl.laddr;
    let ni =
      if key < s.l.lkey then mk_internal t.alloc s.l.lkey (Leaf nl) (Leaf s.l)
      else mk_internal t.alloc key (Leaf s.l) (Leaf nl)
    in
    Sthread.write ni.addr;
    let op = { ip = s.p; il = s.l; inew = ni } in
    if cas_upd s.p ~expect:s.pupd ~state':(IFlag op) then begin
      help_insert op;
      true
    end
    else begin
      Sthread.read s.p.addr;
      help s.p.upd;
      insert t ~key ~value
    end
  end

let rec remove t key =
  let s = search t key in
  if s.l.lkey <> key then false
  else begin
    let gp = match s.gp with Some gp -> gp | None -> failwith "bst_ellen: delete at root" in
    if s.gpupd.state <> Clean then begin
      help s.gpupd;
      remove t key
    end
    else if s.pupd.state <> Clean then begin
      help s.pupd;
      remove t key
    end
    else begin
      let op = { dgp = gp; dp = s.p; dl = s.l; dpupdate = s.pupd } in
      if cas_upd gp ~expect:s.gpupd ~state':(DFlag op) then begin
        if help_delete op then true else remove t key
      end
      else begin
        Sthread.read gp.addr;
        help gp.upd;
        remove t key
      end
    end
  end

let lookup t key =
  let s = search t key in
  if s.l.lkey = key then Some s.l.lvalue else None

let sentinel k = k >= inf1

let to_list t =
  let rec go acc = function
    | Leaf l -> if sentinel l.lkey then acc else (l.lkey, l.lvalue) :: acc
    | Node n -> go (go acc n.right) n.left
  in
  go [] (Node t.root)

let check_invariants t =
  let rec go lo hi = function
    | Leaf l ->
        if not (sentinel l.lkey) && not (l.lkey >= lo && l.lkey < hi) then
          failwith "bst_ellen: leaf out of routing range"
    | Node n ->
        (match n.upd.state with
        | Clean -> ()
        | IFlag _ | DFlag _ | Mark _ -> failwith "bst_ellen: pending operation at quiescence");
        go lo n.key n.left;
        go n.key hi n.right
  in
  go min_int max_int (Node t.root)

let populate t keys = Set_intf.balanced (insert t) keys
