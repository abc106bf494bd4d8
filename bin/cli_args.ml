(* Range checks shared by the command-line front ends. *)

(* [Ok ()] when [lo <= v <= hi], otherwise a usage message naming [flag]. *)
let in_range flag ~lo ?(hi = max_int) v =
  if v >= lo && v <= hi then Ok ()
  else if hi = max_int then Error (Printf.sprintf "%s must be at least %d (got %d)" flag lo v)
  else Error (Printf.sprintf "%s must be between %d and %d (got %d)" flag lo hi v)
