(* Order statistics over samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile of a sorted array; 0 on no samples. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median a = quantile (sorted a) 0.5

let mean a =
  if Array.length a = 0 then 0.0
  else Array.fold_left ( +. ) 0.0 a /. float_of_int (Array.length a)

let ratio num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den
