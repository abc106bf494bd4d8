(* Binary min-heap over int arrays, with payloads parked in a slot pool.

   The sift loops move only [times], [seqs] and [slots], all unboxed ints,
   so they never allocate and never hit the GC write barrier. A payload is
   written once, into [pool] at a slot taken from the free list, and read
   back once at [take]. Sifting boxed payloads instead cost two
   [caml_modify] per level, each adding a remembered-set entry whenever a
   freshly allocated payload went into the long-lived (major-heap) array.

   Every slot below [Array.length pool] is either named by exactly one live
   heap entry or listed in [free.(0 .. nfree - 1)]; a freed slot holds
   [dummy], so the pool keeps no taken payload alive. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;  (* pool index of each heap entry's payload *)
  mutable pool : 'a array;
  mutable free : int array;
  mutable nfree : int;
  mutable len : int;
  mutable next_seq : int;
}

let dummy = Obj.magic 0
let init_cap = 64

let create () =
  {
    times = Array.make init_cap 0;
    seqs = Array.make init_cap 0;
    slots = Array.make init_cap 0;
    pool = Array.make init_cap dummy;
    free = Array.init init_cap (fun i -> init_cap - 1 - i);
    nfree = init_cap;
    len = 0;
    next_seq = 0;
  }

let is_empty t = t.len = 0
let size t = t.len

let extend a cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Only called when full: every old slot is in use and the new ones
   [old_cap .. cap - 1] all go on the free list. *)
let grow t =
  let old_cap = Array.length t.times in
  let cap = 2 * old_cap in
  t.times <- extend t.times cap 0;
  t.seqs <- extend t.seqs cap 0;
  t.slots <- extend t.slots cap 0;
  t.pool <- extend t.pool cap dummy;
  t.free <- Array.init cap (fun i -> cap - 1 - i);
  t.nfree <- old_cap

(* Ties on [time] break by insertion sequence: determinism. *)
let push t ~time payload =
  if t.len = Array.length t.times then grow t;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.nfree <- t.nfree - 1;
  let slot = t.free.(t.nfree) in
  t.pool.(slot) <- payload;
  let i = ref t.len in
  t.len <- t.len + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = t.times.(parent) in
    if time < pt || (time = pt && seq < t.seqs.(parent)) then begin
      t.times.(!i) <- pt;
      t.seqs.(!i) <- t.seqs.(parent);
      t.slots.(!i) <- t.slots.(parent);
      i := parent
    end
    else continue := false
  done;
  t.times.(!i) <- time;
  t.seqs.(!i) <- seq;
  t.slots.(!i) <- slot

(* Drop the root: move the hole at 0 down along the smaller children until
   the last entry fits in it. *)
let remove_min t =
  let last = t.len - 1 in
  t.len <- last;
  if last > 0 then begin
    let time = t.times.(last) and seq = t.seqs.(last) and slot = t.slots.(last) in
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= last then continue := false
      else begin
        let r = l + 1 in
        let c =
          if r >= last then l
          else
            let lt = t.times.(l) and rt = t.times.(r) in
            if rt < lt || (rt = lt && t.seqs.(r) < t.seqs.(l)) then r else l
        in
        let ct = t.times.(c) in
        if ct < time || (ct = time && t.seqs.(c) < seq) then begin
          t.times.(!i) <- ct;
          t.seqs.(!i) <- t.seqs.(c);
          t.slots.(!i) <- t.slots.(c);
          i := c
        end
        else continue := false
      end
    done;
    t.times.(!i) <- time;
    t.seqs.(!i) <- seq;
    t.slots.(!i) <- slot
  end

(* The root's payload, with its slot cleared and freed. *)
let take_root t =
  let slot = t.slots.(0) in
  let payload = t.pool.(slot) in
  t.pool.(slot) <- dummy;
  t.free.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1;
  remove_min t;
  payload

let next_time t = if t.len = 0 then max_int else t.times.(0)

let take t =
  if t.len = 0 then invalid_arg "Heap.take: empty heap";
  take_root t

let pop t =
  if t.len = 0 then None
  else begin
    let time = t.times.(0) in
    Some (time, take_root t)
  end

let min_time t = if t.len = 0 then None else Some t.times.(0)
