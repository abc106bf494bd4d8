(* Buckets: value v >= 0 maps to bucket (msb * sub + subindex) where the top
   [sub_bits] bits below the most significant bit index sub-buckets. *)

let sub_bits = 5
let sub = 1 lsl sub_bits

type t = {
  buckets : int array;
  mutable total : int;
  mutable sum : float;
  mutable maxv : int;
}

let nbuckets = 63 * sub

let create () = { buckets = Array.make nbuckets 0; total = 0; sum = 0.0; maxv = 0 }

let msb_index v =
  (* index of the most significant set bit; v > 0 *)
  let rec go v acc = if v = 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let bucket_of v =
  if v < sub then v
  else
    let m = msb_index v in
    let low = (v lsr (m - sub_bits)) land (sub - 1) in
    ((m - sub_bits + 1) * sub) + low

let upper_edge b =
  if b < sub then b
  else
    let m = (b / sub) + sub_bits - 1 in
    let low = b mod sub in
    ((sub + low + 1) lsl (m - sub_bits)) - 1

let add t v =
  let v = if v < 0 then 0 else v in
  let b = bucket_of v in
  t.buckets.(b) <- t.buckets.(b) + 1;
  t.total <- t.total + 1;
  t.sum <- t.sum +. float_of_int v;
  if v > t.maxv then t.maxv <- v

let count t = t.total
let mean t = if t.total = 0 then 0.0 else t.sum /. float_of_int t.total
let max_value t = t.maxv

let percentile t p =
  if t.total = 0 then 0
  else begin
    let target = int_of_float (ceil (p *. float_of_int t.total)) in
    let target = if target < 1 then 1 else target in
    let acc = ref 0 in
    let result = ref t.maxv in
    (try
       for b = 0 to nbuckets - 1 do
         acc := !acc + t.buckets.(b);
         if !acc >= target then begin
           result := Int.min (upper_edge b) t.maxv;
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end
