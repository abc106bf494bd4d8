module Prng = Dps_simcore.Prng

(* YCSB's Zipfian constant *)
let theta = 0.99

type zipf_state = {
  n : int;
  alpha : float;
  zetan : float;
  eta : float;
  scrambled : bool;
}

type t = Uniform of int | Zipf of zipf_state

let uniform ~range =
  assert (range > 0);
  Uniform range

let zeta n =
  let sum = ref 0.0 in
  for i = 1 to n do
    sum := !sum +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !sum

let zipf ?(scrambled = true) ~range () =
  assert (range > 0);
  let zetan = zeta range in
  let zeta2 = zeta 2 in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. Float.pow (2.0 /. float_of_int range) (1.0 -. theta)) /. (1.0 -. (zeta2 /. zetan))
  in
  Zipf { n = range; alpha; zetan; eta; scrambled }

let range = function Uniform n -> n | Zipf z -> z.n

(* FNV-style scramble so the hottest ranks are not adjacent keys. *)
let scramble n rank =
  let h = (rank * 0x100000001B3) lxor 0x3BF29CE484222325 in
  let h = (h lxor (h lsr 29)) * 0xBF58476D1CE4E5B in
  abs (h lxor (h lsr 32)) mod n

let sample t prng =
  match t with
  | Uniform n -> Prng.int prng n
  | Zipf z ->
      let u = Prng.float prng 1.0 in
      let uz = u *. z.zetan in
      let rank =
        if uz < 1.0 then 0
        else if uz < 1.0 +. Float.pow 0.5 theta then 1
        else
          let r =
            float_of_int z.n *. Float.pow ((z.eta *. u) -. z.eta +. 1.0) z.alpha
          in
          min (z.n - 1) (int_of_float r)
      in
      if z.scrambled then scramble z.n rank else rank
