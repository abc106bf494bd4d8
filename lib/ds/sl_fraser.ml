(** Lock-free skip list — the paper's [lf-f] (Fraser's algorithm as shipped
    by ASCYLIB, via the Shavit-Lev-Herlihy wait-free-contains variant).

    Deletion marks the node (the real algorithm packs the mark into each
    next pointer; the node's line is the same atomicity domain here), then
    searches physically unlink marked nodes level by level. The bottom-level
    link is the linearization point of insertion; upper levels are
    best-effort index shortcuts, exactly as in the original. *)

module Alloc = Dps_sthread.Alloc
module Prng = Dps_simcore.Prng
module Sthread = Dps_sthread.Sthread

let max_level = 16

type node = {
  key : int;
  mutable value : int;
  addr : int;
  mutable marked : bool;
  next : node array;  (* one successor per level; the tail has none *)
}

type t = { alloc : Alloc.t; head : node; tail : node; cold_prng : Prng.t }

let name = "lf-f"

let mk_node alloc key value next = { key; value; addr = Alloc.line alloc; marked = false; next }

let create alloc =
  let tail = mk_node alloc max_int 0 [||] in
  let head = mk_node alloc min_int 0 (Array.make max_level tail) in
  { alloc; head; tail; cold_prng = Prng.create 0xBADC0FFEEL }

let random_level t =
  let p = if Sthread.in_sim () then Sthread.self_prng () else t.cold_prng in
  let rec go l = if l < max_level && Prng.bool p then go (l + 1) else l in
  go 1

(* CAS of pred.next[lvl], refused if pred is marked (models the
   mark-in-pointer of the original: a marked predecessor's links are
   frozen). [expect] is the node currently linked. *)
let cas_next pred lvl ~expect ~next =
  Sthread.rmw pred.addr;
  if (not pred.marked) && pred.next.(lvl) == expect then begin
    pred.next.(lvl) <- next;
    true
  end
  else false

(* Allow self-unlinking from a marked predecessor (cleanup must be able to
   proceed through chains of marked nodes). *)
let cas_next_cleanup pred lvl ~expect ~next =
  Sthread.rmw pred.addr;
  if pred.next.(lvl) == expect then begin
    pred.next.(lvl) <- next;
    true
  end
  else false

exception Restart

(* Search with cleanup: fills preds/succs such that
   preds.(l).key < key <= succs.(l).key with all succs unmarked (at
   observation time). *)
let rec find t key preds succs =
  try
    Sthread.charge_read t.head.addr;
    let pred = ref t.head in
    for lvl = max_level - 1 downto 0 do
      let continue_level = ref true in
      while !continue_level do
        let curr = !pred.next.(lvl) in
        Sthread.charge_read curr.addr;
        if curr.marked && curr != t.tail then begin
          Sthread.flush ();
          if not (cas_next_cleanup !pred lvl ~expect:curr ~next:curr.next.(lvl)) then
            raise Restart
        end
        else if curr.key < key then pred := curr
        else begin
          preds.(lvl) <- !pred;
          succs.(lvl) <- curr;
          continue_level := false
        end
      done
    done;
    Sthread.flush ()
  with Restart -> find t key preds succs

let rec insert t ~key ~value =
  Set_intf.check_key key;
  let preds = Array.make max_level t.head and succs = Array.make max_level t.tail in
  find t key preds succs;
  if succs.(0).key = key then false
  else begin
    let level = random_level t in
    let n = mk_node t.alloc key value (Array.sub succs 0 level) in
    Sthread.write n.addr;
    if not (cas_next preds.(0) 0 ~expect:succs.(0) ~next:n) then insert t ~key ~value
    else begin
      (* link the index levels; abandon if the node gets deleted meanwhile *)
      let l = ref 1 in
      while !l < level && not n.marked do
        let lvl = !l in
        if cas_next preds.(lvl) lvl ~expect:succs.(lvl) ~next:n then incr l
        else begin
          find t key preds succs;
          if succs.(lvl) == n then incr l (* a helper linked it *)
          else begin
            Sthread.rmw n.addr;
            if n.marked then l := level else n.next.(lvl) <- succs.(lvl)
          end
        end
      done;
      true
    end
  end

let remove t key =
  Set_intf.check_key key;
  let preds = Array.make max_level t.head and succs = Array.make max_level t.tail in
  find t key preds succs;
  let victim = succs.(0) in
  if victim.key <> key then false
  else begin
    Sthread.rmw victim.addr;
    if victim.marked then false
    else begin
      victim.marked <- true;
      (* physical cleanup *)
      find t key preds succs;
      true
    end
  end

(* Wait-free: plain traversal, no helping. *)
let lookup t key =
  Set_intf.check_key key;
  Sthread.charge_read t.head.addr;
  let pred = ref t.head in
  for lvl = max_level - 1 downto 0 do
    let continue_level = ref true in
    while !continue_level do
      let curr = !pred.next.(lvl) in
      Sthread.charge_read curr.addr;
      if curr.key < key then pred := curr else continue_level := false
    done
  done;
  let curr = !pred.next.(0) in
  Sthread.flush ();
  if curr.key = key && not curr.marked then Some curr.value else None

(* Priority-queue entry points (Shavit & Lotan build directly on this
   structure; see {!Pq_shavit}). *)

let peek_min t =
  Sthread.charge_read t.head.addr;
  let rec go n =
    let c = n.next.(0) in
    Sthread.charge_read c.addr;
    if c == t.tail then begin
      Sthread.flush ();
      None
    end
    else if c.marked then go c
    else begin
      Sthread.flush ();
      Some (c.key, c.value)
    end
  in
  go t.head

let rec remove_min t =
  Sthread.charge_read t.head.addr;
  let rec first_unmarked n =
    let c = n.next.(0) in
    Sthread.charge_read c.addr;
    if c == t.tail then None else if c.marked then first_unmarked c else Some c
  in
  match first_unmarked t.head with
  | None ->
      Sthread.flush ();
      None
  | Some c ->
      Sthread.rmw c.addr;
      if c.marked then remove_min t
      else begin
        c.marked <- true;
        let preds = Array.make max_level t.head and succs = Array.make max_level t.tail in
        find t c.key preds succs;
        Some (c.key, c.value)
      end

let to_list t =
  let rec go acc n =
    let c = n.next.(0) in
    if c == t.tail then List.rev acc
    else go (if c.marked then acc else (c.key, c.value) :: acc) c
  in
  go [] t.head

let check_invariants t =
  (* Every level must be strictly sorted, and every unmarked node linked at
     an index level must be reachable at level 0. Marked nodes may linger at
     any level until a later search passes by — that is legal garbage. *)
  let level_keys ~include_marked lvl =
    let rec go acc n =
      let c = n.next.(lvl) in
      if c == t.tail then List.rev acc
      else go (if c.marked && not include_marked then acc else (c.key, c.marked) :: acc) c
    in
    go [] t.head
  in
  for lvl = 0 to max_level - 1 do
    let rec sorted = function
      | (a, _) :: ((b, _) :: _ as rest) ->
          if a >= b then failwith (Printf.sprintf "sl_fraser: level %d unsorted" lvl)
          else sorted rest
      | [ _ ] | [] -> ()
    in
    sorted (level_keys ~include_marked:true lvl)
  done;
  let set0 = Hashtbl.create 64 in
  List.iter (fun (k, _) -> Hashtbl.replace set0 k ()) (level_keys ~include_marked:false 0);
  for lvl = 1 to max_level - 1 do
    List.iter
      (fun (k, _) ->
        if not (Hashtbl.mem set0 k) then
          failwith "sl_fraser: live index key missing at level 0")
      (level_keys ~include_marked:false lvl)
  done

let populate t keys = Set_intf.given (insert t) keys
