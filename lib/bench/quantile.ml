type t = float array (* sorted ascending *)

let of_array a =
  if Array.length a = 0 then invalid_arg "Quantile.of_array: empty sample";
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

let of_list l = of_array (Array.of_list l)
let count = Array.length

let value t p =
  if not (p >= 0. && p <= 100.) then
    invalid_arg "Quantile.value: percentile outside [0, 100]";
  let n = Array.length t in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  t.(Stdlib.max 1 (Stdlib.min n rank) - 1)

let p50 t = value t 50.
let p95 t = value t 95.
let p99 t = value t 99.
let min t = t.(0)
let max t = t.(Array.length t - 1)
let total t = Array.fold_left ( +. ) 0. t
let mean t = total t /. float_of_int (Array.length t)

let summary t =
  let n = Array.length t in
  let m = mean t in
  let sd =
    if n = 1 then 0.
    else
      sqrt
        (Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. t
        /. float_of_int (n - 1))
  in
  Printf.sprintf "n=%d mean=%.2f sd=%.2f min=%.2f p50=%.2f p99=%.2f max=%.2f"
    n m sd (min t) (p50 t) (p99 t) (max t)
