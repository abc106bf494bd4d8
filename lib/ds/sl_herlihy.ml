(** Lazy lock-based skip list (Herlihy, Lev, Luchangco & Shavit,
    SIROCCO'07) — the paper's [lb-h]. Wait-free unsynchronized search;
    updates lock the predecessors at every affected level (in descending
    key order, which makes lock acquisition deadlock-free), validate, then
    link or unlink. *)

module Alloc = Dps_sthread.Alloc
module Prng = Dps_simcore.Prng
module Sthread = Dps_sthread.Sthread
module Spinlock = Dps_sync.Spinlock

let max_level = 16

type node = {
  key : int;
  mutable value : int;
  addr : int;
  lock : Spinlock.t;
  mutable marked : bool;
  mutable fully_linked : bool;
  next : node array;  (* one successor per level; the tail has none *)
}

type t = { alloc : Alloc.t; head : node; tail : node; cold_prng : Prng.t }

let name = "lb-h"

let mk_node alloc key value next =
  let addr = Alloc.line alloc in
  { key; value; addr; lock = Spinlock.embed ~addr; marked = false; fully_linked = false; next }

let create alloc =
  let tail = mk_node alloc max_int 0 [||] in
  let head = mk_node alloc min_int 0 (Array.make max_level tail) in
  head.fully_linked <- true;
  tail.fully_linked <- true;
  { alloc; head; tail; cold_prng = Prng.create 0x5EEDL }

let random_level t =
  let p = if Sthread.in_sim () then Sthread.self_prng () else t.cold_prng in
  let rec go l = if l < max_level && Prng.bool p then go (l + 1) else l in
  go 1

(* Wait-free search; returns the level where the key was found (-1 if not)
   and fills preds/succs. *)
let find t key preds succs =
  (* racy by design: wait-free search; updaters re-validate under locks *)
  Sthread.charge_read_racy t.head.addr;
  let lfound = ref (-1) in
  let pred = ref t.head in
  for lvl = max_level - 1 downto 0 do
    let continue_level = ref true in
    while !continue_level do
      let curr = !pred.next.(lvl) in
      Sthread.charge_read_racy curr.addr;
      if curr.key < key then pred := curr
      else begin
        if !lfound = -1 && curr.key = key then lfound := lvl;
        preds.(lvl) <- !pred;
        succs.(lvl) <- curr;
        continue_level := false
      end
    done
  done;
  Sthread.flush ();
  !lfound

(* Lock preds.(0..level-1) bottom-up, skipping duplicates (identical preds
   are contiguous across levels). *)
let lock_preds preds level =
  for lvl = 0 to level - 1 do
    if lvl = 0 || preds.(lvl - 1) != preds.(lvl) then Spinlock.acquire preds.(lvl).lock
  done

let unlock_preds preds level =
  for lvl = 0 to level - 1 do
    if lvl = 0 || preds.(lvl - 1) != preds.(lvl) then Spinlock.release preds.(lvl).lock
  done

let rec insert t ~key ~value =
  Set_intf.check_key key;
  let preds = Array.make max_level t.head and succs = Array.make max_level t.tail in
  let lfound = find t key preds succs in
  if lfound <> -1 then begin
    let found = succs.(lfound) in
    if not found.marked then begin
      (* wait for the concurrent inserter to finish linking; racy by
         design — the inserter's releasing fully_linked publish is the
         only thing being awaited *)
      while not found.fully_linked do
        Sthread.read_racy found.addr
      done;
      false
    end
    else insert t ~key ~value
  end
  else begin
    let level = random_level t in
    lock_preds preds level;
    let valid = ref true in
    for lvl = 0 to level - 1 do
      let p = preds.(lvl) and s = succs.(lvl) in
      if p.marked || s.marked || p.next.(lvl) != s then valid := false
    done;
    if not !valid then begin
      unlock_preds preds level;
      insert t ~key ~value
    end
    else begin
      let n = mk_node t.alloc key value (Array.sub succs 0 level) in
      (* releasing init publish: once the bottom link lands, other threads
         may lock [n] as a predecessor and write its line — their lock
         acquisition (an atomic on [n.addr]) must be ordered after this *)
      Sthread.write_release n.addr;
      for lvl = 0 to level - 1 do
        preds.(lvl).next.(lvl) <- n;
        Sthread.write preds.(lvl).addr
      done;
      (* fully_linked is set without holding [n]'s lock, exactly as the
         original's volatile fullyLinked field; model it as an atomic
         update so it coexists with lock-holders' writes to the line *)
      Sthread.rmw n.addr;
      n.fully_linked <- true;
      unlock_preds preds level;
      true
    end
  end

let remove t key =
  Set_intf.check_key key;
  let preds = Array.make max_level t.head and succs = Array.make max_level t.tail in
  let victim = ref None in
  let is_marked = ref false in
  let top_level = ref (-1) in
  let result = ref None in
  while !result = None do
    let lfound = find t key preds succs in
    let candidate =
      if lfound <> -1 then Some succs.(lfound) else None
    in
    let ok =
      !is_marked
      ||
      match candidate with
      | Some v -> v.fully_linked && Array.length v.next - 1 = lfound && not v.marked
      | None -> false
    in
    if not ok then result := Some false
    else begin
      (match candidate with Some v when not !is_marked -> victim := Some v | _ -> ());
      let v = Option.get !victim in
      if not !is_marked then begin
        top_level := Array.length v.next;
        Spinlock.acquire v.lock;
        if v.marked then begin
          Spinlock.release v.lock;
          result := Some false
        end
        else begin
          v.marked <- true;
          Sthread.write v.addr;
          is_marked := true
        end
      end;
      if !result = None then begin
        lock_preds preds !top_level;
        let valid = ref true in
        for lvl = 0 to !top_level - 1 do
          let p = preds.(lvl) in
          if p.marked || p.next.(lvl) != v then valid := false
        done;
        if !valid then begin
          for lvl = !top_level - 1 downto 0 do
            preds.(lvl).next.(lvl) <- v.next.(lvl);
            Sthread.write preds.(lvl).addr
          done;
          Spinlock.release v.lock;
          unlock_preds preds !top_level;
          result := Some true
        end
        else unlock_preds preds !top_level
        (* keep victim locked and retry the unlink *)
      end
    end
  done;
  Option.get !result

let lookup t key =
  Set_intf.check_key key;
  let preds = Array.make max_level t.head and succs = Array.make max_level t.tail in
  let lfound = find t key preds succs in
  if lfound = -1 then None
  else
    let n = succs.(lfound) in
    if n.fully_linked && not n.marked then Some n.value else None

let to_list t =
  let rec go acc n =
    let c = n.next.(0) in
    if c == t.tail then List.rev acc
    else go (if c.marked || not c.fully_linked then acc else (c.key, c.value) :: acc) c
  in
  go [] t.head

let check_invariants t =
  for lvl = 0 to max_level - 1 do
    let rec go prev n =
      let c = n.next.(lvl) in
      if c != t.tail then begin
        if c.key <= prev then failwith (Printf.sprintf "sl_herlihy: level %d unsorted" lvl);
        if c.marked then failwith "sl_herlihy: reachable marked node at quiescence";
        if not c.fully_linked then failwith "sl_herlihy: reachable half-linked node";
        go c.key c
      end
    in
    go min_int t.head
  done

let populate t keys = Set_intf.given (insert t) keys
