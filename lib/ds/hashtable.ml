(** Chained hash table with a spinlock per bucket — memcached's structure,
    and a natural fit for DPS partitions. The bucket array is one cache
    line per bucket; the lock shares the bucket's line, exactly as
    fine-grained-locked tables lay it out. *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc
module Spinlock = Dps_sync.Spinlock

type node = { key : int; mutable value : int; addr : int; mutable next : node option }

type bucket = { baddr : int; lock : Spinlock.t; mutable chain : node option }

type t = { alloc : Alloc.t; buckets : bucket array; mask : int }

let name = "hashtable"

(* a power of two, so a bucket index is a mask *)
let nbuckets = 1024

let create alloc =
  let base = Alloc.lines alloc nbuckets in
  let mk i =
    let baddr = base + i in
    { baddr; lock = Spinlock.embed ~addr:baddr; chain = None }
  in
  { alloc; buckets = Array.init nbuckets mk; mask = nbuckets - 1 }

(* Fibonacci hashing spreads adjacent keys across buckets. *)
let bucket_of t key = (key * 0x9E3779B1) lsr 7 land t.mask

let insert t ~key ~value =
  Set_intf.check_key key;
  let b = t.buckets.(bucket_of t key) in
  Spinlock.acquire b.lock;
  let rec walk = function
    | None -> None
    | Some n ->
        Sthread.charge_read n.addr;
        if n.key = key then Some n else walk n.next
  in
  let found = walk b.chain in
  Sthread.flush ();
  let result =
    match found with
    | Some _ -> false
    | None ->
        let n = { key; value; addr = Alloc.line t.alloc; next = b.chain } in
        Sthread.write n.addr;
        b.chain <- Some n;
        Sthread.write b.baddr;
        true
  in
  Spinlock.release b.lock;
  result

let remove t key =
  Set_intf.check_key key;
  let b = t.buckets.(bucket_of t key) in
  Spinlock.acquire b.lock;
  let rec unlink prev = function
    | None -> false
    | Some n ->
        Sthread.charge_read n.addr;
        if n.key = key then begin
          Sthread.flush ();
          (match prev with
          | None ->
              b.chain <- n.next;
              Sthread.write b.baddr
          | Some p ->
              p.next <- n.next;
              Sthread.write p.addr);
          true
        end
        else unlink (Some n) n.next
  in
  let result = unlink None b.chain in
  Sthread.flush ();
  Spinlock.release b.lock;
  result

let lookup t key =
  Set_intf.check_key key;
  (* racy by design: the read path takes no lock (memcached-style); it may
     observe a bucket mid-update, which chain walking tolerates *)
  let b = t.buckets.(bucket_of t key) in
  Sthread.charge_read_racy b.baddr;
  let rec walk = function
    | None -> None
    | Some n ->
        Sthread.charge_read_racy n.addr;
        if n.key = key then Some n.value else walk n.next
  in
  let r = walk b.chain in
  Sthread.flush ();
  r

let update t ~key ~value =
  let b = t.buckets.(bucket_of t key) in
  Spinlock.acquire b.lock;
  let rec walk = function
    | None -> false
    | Some n ->
        Sthread.charge_read n.addr;
        if n.key = key then begin
          n.value <- value;
          Sthread.flush ();
          Sthread.write n.addr;
          true
        end
        else walk n.next
  in
  let r = walk b.chain in
  Sthread.flush ();
  Spinlock.release b.lock;
  r

let to_list t =
  let out = ref [] in
  Array.iter
    (fun b ->
      let rec go = function
        | None -> ()
        | Some n ->
            out := (n.key, n.value) :: !out;
            go n.next
      in
      go b.chain)
    t.buckets;
  List.sort compare !out

let check_invariants t =
  Array.iteri
    (fun i b ->
      let rec go = function
        | None -> ()
        | Some n ->
            if bucket_of t n.key <> i then failwith "hashtable: key in wrong bucket";
            go n.next
      in
      go b.chain)
    t.buckets

let populate t keys = Set_intf.descending (insert t) keys
