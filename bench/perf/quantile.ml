(** Order statistics over float samples. *)

(** [(q1, q2, q3)] as Python's [statistics.quantiles xs ~n:4] computes
    them (the default exclusive method), so spreads read the same here as
    in any script that checks them. A single sample is its own quartiles. *)
let quartiles xs =
  let d = Array.of_list xs in
  Array.sort compare d;
  let ld = Array.length d in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (d.(0), d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

let lower_quartile xs =
  let q1, _, _ = quartiles xs in
  q1

let median xs =
  let _, q2, _ = quartiles xs in
  q2
