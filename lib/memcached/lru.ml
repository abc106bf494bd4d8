(** Intrusive doubly-linked LRU list over items, guarded by one lock — the
    structure whose bump-on-every-get makes stock memcached's read path
    store-heavy and contended. *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Spinlock = Dps_sync.Spinlock

type t = {
  lock : Spinlock.t;
  mutable head : Item.t option;  (* most recent *)
  mutable tail : Item.t option;  (* eviction victim *)
  mutable count : int;
}

let create alloc = { lock = Spinlock.create alloc; head = None; tail = None; count = 0 }

let count t = t.count

(* Callers hold [t.lock]. Unlink writes the neighbours' header lines. *)
let unlink t (it : Item.t) =
  assert it.Item.in_lru;
  (match it.Item.lprev with
  | Some p ->
      p.Item.lnext <- it.Item.lnext;
      Sthread.write p.Item.haddr
  | None -> t.head <- it.Item.lnext);
  (match it.Item.lnext with
  | Some n ->
      n.Item.lprev <- it.Item.lprev;
      Sthread.write n.Item.haddr
  | None -> t.tail <- it.Item.lprev);
  it.Item.lprev <- None;
  it.Item.lnext <- None;
  it.Item.in_lru <- false;
  t.count <- t.count - 1

let push_front_locked t (it : Item.t) =
  assert (not it.Item.in_lru);
  it.Item.lnext <- t.head;
  it.Item.lprev <- None;
  Sthread.write it.Item.haddr;
  (match t.head with
  | Some h ->
      h.Item.lprev <- Some it;
      Sthread.write h.Item.haddr
  | None -> t.tail <- Some it);
  t.head <- Some it;
  it.Item.in_lru <- true;
  t.count <- t.count + 1

let insert t it =
  Spinlock.acquire t.lock;
  push_front_locked t it;
  Spinlock.release t.lock

(** The get-path bump: move an item to the front. *)
let touch t it =
  Spinlock.acquire t.lock;
  if it.Item.in_lru then begin
    unlink t it;
    push_front_locked t it
  end;
  Spinlock.release t.lock

let remove t it =
  Spinlock.acquire t.lock;
  if it.Item.in_lru then unlink t it;
  Spinlock.release t.lock

(** Pop the least-recently-used item (eviction victim). *)
let pop_tail t =
  Spinlock.acquire t.lock;
  let victim = t.tail in
  (match victim with Some it -> unlink t it | None -> ());
  Spinlock.release t.lock;
  victim
