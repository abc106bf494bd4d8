(** Slab allocator in the spirit of memcached's: power-of-two size classes,
    one free list per class, and one metadata cache line per class whose
    lock is taken (one charged atomic) on every allocate/free — the slab
    lock traffic stock memcached pays. *)

module Sthread = Dps_sthread.Sthread
module Alloc = Dps_sthread.Alloc

type klass = { meta_addr : int; chunk_lines : int; mutable free : int list }

type t = { alloc : Alloc.t; classes : klass array }

let nclasses = 12 (* chunk sizes 1 .. 2048 lines *)

let create alloc =
  let mk i = { meta_addr = Alloc.line alloc; chunk_lines = 1 lsl i; free = [] } in
  { alloc; classes = Array.init nclasses mk }

let class_for t lines =
  let rec go i =
    if i >= nclasses - 1 || t.classes.(i).chunk_lines >= lines then i else go (i + 1)
  in
  go 0

(** Allocate a chunk of at least [lines] cache lines; returns its base
    address. Reuses freed chunks of the same class first. *)
let allocate t ~lines =
  let k = t.classes.(class_for t lines) in
  Sthread.rmw k.meta_addr;
  match k.free with
  | base :: rest ->
      k.free <- rest;
      base
  | [] -> Alloc.lines t.alloc k.chunk_lines

let free t ~base ~lines =
  let k = t.classes.(class_for t lines) in
  Sthread.rmw k.meta_addr;
  k.free <- base :: k.free

let free_chunks t = Array.fold_left (fun acc k -> acc + List.length k.free) 0 t.classes
