(* A calendar queue (R. Brown, "Calendar queues", CACM 1988) specialised to
   one-cycle buckets over a fixed window, for monotone integer times.

   The window covers [base, base + window), where [base] is the time of the
   last take. Each of its times owns one bucket, [time land mask], holding a
   FIFO list of pool nodes linked through [next]; the node arrays are plain
   ints, so the lists never move a payload and never hit the write barrier.
   Events at or beyond [base + window] wait in [overflow], a {!Heap}.

   Order is (time, push order), exactly as in {!Heap}. Within the window
   that is bucket order, then list order. An overflow event for time [tm]
   was pushed before the window covered [tm], and [take] moves every
   overflow event the window has just reached into its bucket before it
   returns, so it lands in bucket [tm] before any direct push to [tm]; the
   heap hands same-time events over in their push order.

   [scan] memoises the search for the first nonempty bucket: no bucket in
   [base, scan) holds an entry. A push below [scan] lowers it. [next_time]
   may raise it but never moves [base], so a caller that only peeked can
   still push at the last taken time. *)

let window = 4096
let mask = window - 1
let dummy = Obj.magic 0
let init_cap = 64

type 'a t = {
  mutable base : int;
  mutable scan : int;
  mutable count : int;  (* entries in buckets *)
  heads : int array;  (* first node of each bucket, or -1 *)
  tails : int array;  (* last node of each nonempty bucket *)
  mutable next : int array;  (* next node in the bucket, or in the free list *)
  mutable pool : 'a array;  (* payload of each node; [dummy] when free *)
  mutable free : int;  (* first free node, or -1 *)
  overflow : 'a Heap.t;  (* entries at or beyond [base + window] *)
}

(* [cap] fresh nodes, each linked to the next: a free list starting at 0. *)
let chain cap = Array.init cap (fun i -> if i = cap - 1 then -1 else i + 1)

let create () =
  {
    base = 0;
    scan = 0;
    count = 0;
    heads = Array.make window (-1);
    tails = Array.make window 0;
    next = chain init_cap;
    pool = Array.make init_cap dummy;
    free = 0;
    overflow = Heap.create ();
  }

let size t = t.count + Heap.size t.overflow
let is_empty t = size t = 0

(* Only called when every node is in use: the new ones form the free list. *)
let grow t =
  let old_cap = Array.length t.next in
  let cap = 2 * old_cap in
  let next = chain cap in
  Array.blit t.next 0 next 0 old_cap;
  let pool = Array.make cap dummy in
  Array.blit t.pool 0 pool 0 old_cap;
  t.next <- next;
  t.pool <- pool;
  t.free <- old_cap

(* Append to the bucket of [time], which the window covers. *)
let append t time payload =
  if t.free < 0 then grow t;
  let n = t.free in
  t.free <- t.next.(n);
  t.pool.(n) <- payload;
  t.next.(n) <- -1;
  let b = time land mask in
  if t.heads.(b) < 0 then t.heads.(b) <- n else t.next.(t.tails.(b)) <- n;
  t.tails.(b) <- n;
  t.count <- t.count + 1;
  if time < t.scan then t.scan <- time

(* [time - base] cannot overflow: both are non-negative. *)
let push t ~time payload =
  if time < t.base then invalid_arg "Calendar.push: time before the last taken time";
  if time - t.base < window then append t time payload else Heap.push t.overflow ~time payload

let next_time t =
  if t.count = 0 then Heap.next_time t.overflow
  else begin
    let s = ref t.scan in
    while t.heads.(!s land mask) < 0 do
      incr s
    done;
    t.scan <- !s;
    !s
  end

(* Move every overflow event the window now covers into its bucket. *)
let refill t =
  let ov = t.overflow in
  while Heap.next_time ov - t.base < window && not (Heap.is_empty ov) do
    let time = Heap.next_time ov in
    append t time (Heap.take ov)
  done

let take t =
  if is_empty t then invalid_arg "Calendar.take: empty queue";
  let time = next_time t in
  if time > t.base then begin
    t.base <- time;
    t.scan <- time;
    refill t
  end;
  let b = time land mask in
  let n = t.heads.(b) in
  t.heads.(b) <- t.next.(n);
  let payload = t.pool.(n) in
  t.pool.(n) <- dummy;
  t.next.(n) <- t.free;
  t.free <- n;
  t.count <- t.count - 1;
  payload
