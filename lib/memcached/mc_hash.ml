(** memcached's item hash table: chained buckets, a spinlock embedded in
    each bucket's cache line. *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Spinlock = Dps_sync.Spinlock

type bucket = { baddr : int; lock : Spinlock.t; mutable chain : Item.t option }

type t = { buckets : bucket array; mask : int }

let rec pow2 n = if n <= 1 then 1 else 2 * pow2 ((n + 1) / 2)

let create alloc ~buckets:n =
  let n = pow2 n in
  let base = Alloc.lines alloc n in
  let mk i =
    let baddr = base + i in
    { baddr; lock = Spinlock.embed ~addr:baddr; chain = None }
  in
  { buckets = Array.init n mk; mask = n - 1 }

let bucket_of t key = (key * 0x9E3779B1) lsr 7 land t.mask

let with_bucket t key f =
  let b = t.buckets.(bucket_of t key) in
  Spinlock.acquire b.lock;
  let r = f b in
  Spinlock.release b.lock;
  r

(* Chain walk, one charged read per item header. *)
let find_in_chain key chain =
  let rec go = function
    | None -> None
    | Some (it : Item.t) ->
        Sthread.charge_read it.Item.haddr;
        if it.Item.key = key then Some it else go it.Item.hnext
  in
  let r = go chain in
  Sthread.flush ();
  r

(** Lock-free read path (bucket line is read, not locked): used by
    ParSec-style gets. A concurrent insert may be missed; that is the
    documented optimistic-read trade. *)
let find_nolock t key =
  let b = t.buckets.(bucket_of t key) in
  Sthread.charge_read b.baddr;
  find_in_chain key b.chain

let find t key = with_bucket t key (fun b -> find_in_chain key b.chain)

let insert t (it : Item.t) =
  with_bucket t it.Item.key (fun b ->
      it.Item.hnext <- b.chain;
      Sthread.write it.Item.haddr;
      b.chain <- Some it;
      Sthread.write b.baddr)

let remove t key =
  with_bucket t key (fun b ->
      let rec unlink prev = function
        | None -> None
        | Some (it : Item.t) ->
            Sthread.charge_read it.Item.haddr;
            if it.Item.key = key then begin
              Sthread.flush ();
              (match prev with
              | None ->
                  b.chain <- it.Item.hnext;
                  Sthread.write b.baddr
              | Some (p : Item.t) ->
                  p.Item.hnext <- it.Item.hnext;
                  Sthread.write p.Item.haddr);
              Some it
            end
            else unlink (Some it) it.Item.hnext
      in
      let r = unlink None b.chain in
      Sthread.flush ();
      r)
