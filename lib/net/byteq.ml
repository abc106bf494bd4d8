(* An empty queue holds no buffer: each connection has three queues (the
   client decoder, the rx queue and the server decoder), and most of a big
   fleet's connections sit idle between requests. A push sizes the buffer
   to fit, doubling from [min_cap] bytes. Draining to empty drops a buffer
   of at most [keep_max] bytes; a larger one marks a busy connection and
   stays, so batched replies do not re-create it on the major heap each
   time. [skip] counts bytes still to be discarded as they arrive; the
   queue is empty whenever it is positive. *)
type t = { mutable buf : Bytes.t; mutable start : int; mutable stop : int; mutable skip : int }

let min_cap = 64
let keep_max = 256
let create () = { buf = Bytes.empty; start = 0; stop = 0; skip = 0 }
let length q = q.stop - q.start

let ensure q extra =
  let len = length q in
  if q.stop + extra > Bytes.length q.buf then begin
    (* compact; grow only if the live window plus the new chunk needs it *)
    let cap = ref (Int.max min_cap (Bytes.length q.buf)) in
    while len + extra > !cap do
      cap := !cap * 2
    done;
    let nbuf = if !cap = Bytes.length q.buf then q.buf else Bytes.create !cap in
    Bytes.blit q.buf q.start nbuf 0 len;
    q.buf <- nbuf;
    q.start <- 0;
    q.stop <- len
  end

(* Bytes [pos, pos + n) of an arriving chunk, of which the first [skip]
   are discarded. *)
let[@inline] append q blit src ~pos ~n =
  let k = Int.min n q.skip in
  q.skip <- q.skip - k;
  let n = n - k in
  if n > 0 then begin
    ensure q n;
    blit src (pos + k) q.buf q.stop n;
    q.stop <- q.stop + n
  end

let push q s = append q Bytes.blit_string s ~pos:0 ~n:(String.length s)

let get q i =
  if i < 0 || i >= length q then invalid_arg "Byteq.get";
  Bytes.get q.buf (q.start + i)

let sub q ~pos ~len =
  if pos < 0 || len < 0 || pos + len > length q then invalid_arg "Byteq.sub";
  Bytes.sub_string q.buf (q.start + pos) len

let reset q =
  q.start <- 0;
  q.stop <- 0;
  if Bytes.length q.buf <= keep_max then q.buf <- Bytes.empty

let clear q =
  reset q;
  q.skip <- 0

let drop q n =
  if n < 0 || n > length q then invalid_arg "Byteq.drop";
  q.start <- q.start + n;
  if q.start = q.stop then reset q

let skip q n =
  if n < 0 then invalid_arg "Byteq.skip";
  let k = Int.min n (length q) in
  drop q k;
  q.skip <- q.skip + (n - k)

let move q ~into ~max =
  if q == into then invalid_arg "Byteq.move";
  let n = Int.max 0 (Int.min max (length q)) in
  append into Bytes.blit q.buf ~pos:q.start ~n;
  drop q n;
  n
