(** One memcached shard: item hash + recency structure + slab allocator,
    with capacity-triggered eviction.

    [recency] selects the read path the paper contrasts:
    - [Lru_list]: stock memcached — every get bumps the item to the front
      of a locked LRU list (stores + a shared lock on the read path);
    - [Clock]: ParSec-style — gets are store-free; sets mark a reference
      bit and eviction gives referenced items a second chance (CLOCK). *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc

type recency = Lru_list | Clock

type t = {
  alloc : Alloc.t;
  hash : Mc_hash.t;
  lru : Lru.t;  (* in Clock mode this is the second-chance FIFO *)
  slab : Slab.t;
  recency : recency;
  capacity : int;
  mutable evictions : int;
  mutable gets : int;
  mutable sets : int;
  mutable hits : int;
}

let create alloc ~buckets ~capacity ~recency =
  assert (capacity > 0);
  {
    alloc;
    hash = Mc_hash.create alloc ~buckets;
    lru = Lru.create alloc;
    slab = Slab.create alloc;
    recency;
    capacity;
    evictions = 0;
    gets = 0;
    sets = 0;
    hits = 0;
  }

let size t = Lru.count t.lru
let evictions t = t.evictions
let hit_rate t = if t.gets = 0 then 0.0 else float_of_int t.hits /. float_of_int t.gets

let touch_value it =
  for l = 0 to it.Item.val_lines - 1 do
    Sthread.charge_read (it.Item.val_base + l)
  done;
  Sthread.flush ()

let write_value it =
  for l = 0 to it.Item.val_lines - 1 do
    Sthread.write (it.Item.val_base + l)
  done

(* memcached rate-limits LRU reordering (an item is bumped at most once
   per minute); approximate with one bump per [bump_interval] hits of the
   same item, which keeps the recency order while shedding most of the
   LRU-lock traffic. *)
let bump_interval = 8

let should_bump (it : Item.t) =
  it.Item.stamp <- it.Item.stamp + 1;
  it.Item.stamp mod bump_interval = 0

(** [get t key] returns [true] on a hit and touches the value lines. *)
let get t key =
  t.gets <- t.gets + 1;
  match t.recency with
  | Lru_list -> (
      match Mc_hash.find t.hash key with
      | None -> false
      | Some it ->
          touch_value it;
          if should_bump it then Lru.touch t.lru it;
          t.hits <- t.hits + 1;
          true)
  | Clock -> (
      (* store-free read path *)
      match Mc_hash.find_nolock t.hash key with
      | None -> false
      | Some it ->
          touch_value it;
          t.hits <- t.hits + 1;
          true)

(* CLOCK as second-chance FIFO: referenced tail items get their bit cleared
   and go back to the front. *)
let rec clock_victim t guard =
  match Lru.pop_tail t.lru with
  | None -> None
  | Some it ->
      Sthread.read it.Item.haddr;
      if it.Item.referenced && guard > 0 then begin
        it.Item.referenced <- false;
        Sthread.write it.Item.haddr;
        Lru.insert t.lru it;
        clock_victim t (guard - 1)
      end
      else Some it

let evict_one t =
  let victim =
    match t.recency with
    | Lru_list -> Lru.pop_tail t.lru
    | Clock -> clock_victim t (2 * Lru.count t.lru)
  in
  match victim with
  | None -> ()
  | Some it ->
      t.evictions <- t.evictions + 1;
      (match Mc_hash.remove t.hash it.Item.key with Some _ | None -> ());
      Slab.free t.slab ~base:it.Item.val_base ~lines:it.Item.val_lines

(** [set t ~key ~val_lines] inserts or updates (evicting at capacity). *)
let set t ~key ~val_lines =
  t.sets <- t.sets + 1;
  match Mc_hash.find t.hash key with
  | Some it ->
      (* in-place update when the size class still fits; else reallocate *)
      if it.Item.val_lines <> val_lines then begin
        Slab.free t.slab ~base:it.Item.val_base ~lines:it.Item.val_lines;
        it.Item.val_base <- Slab.allocate t.slab ~lines:val_lines;
        it.Item.val_lines <- val_lines
      end;
      it.Item.stamp <- it.Item.stamp + 1;
      it.Item.referenced <- true;
      Sthread.write it.Item.haddr;
      write_value it;
      (match t.recency with Lru_list -> Lru.touch t.lru it | Clock -> ())
  | None ->
      if size t >= t.capacity then evict_one t;
      let base = Slab.allocate t.slab ~lines:val_lines in
      let it = Item.make ~key ~haddr:(Alloc.line t.alloc) ~val_base:base ~val_lines in
      Sthread.write it.Item.haddr;
      write_value it;
      Mc_hash.insert t.hash it;
      Lru.insert t.lru it

let delete t key =
  match Mc_hash.remove t.hash key with
  | None -> false
  | Some it ->
      Lru.remove t.lru it;
      Slab.free t.slab ~base:it.Item.val_base ~lines:it.Item.val_lines;
      true
