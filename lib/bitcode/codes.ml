let bits_needed x =
  if x < 0 then invalid_arg "Codes.bits_needed: negative";
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x lsr 1) in
  go 0 x

let ceil_log2 x =
  if x < 1 then invalid_arg "Codes.ceil_log2: need x >= 1";
  bits_needed (x - 1)

let write_fixed = Bitbuf.add_bits
let read_fixed = Bitbuf.read_bits

(* A unary run goes out as 62-bit fields of ones; the last field
   carries the remaining ones and the terminating zero. *)
let write_unary b x =
  if x < 0 then invalid_arg "Codes.write_unary: negative";
  let rest = ref x in
  while !rest >= 62 do
    Bitbuf.add_bits b ((1 lsl 62) - 1) ~width:62;
    rest := !rest - 62
  done;
  Bitbuf.add_bits b (((1 lsl !rest) - 1) lsl 1) ~width:(!rest + 1)

let read_unary r =
  let x = ref 0 in
  while Bitbuf.read_bit r do
    incr x
  done;
  !x

let unary_length x =
  if x < 0 then invalid_arg "Codes.unary_length: negative";
  x + 1

(* [w] ones, a zero, then the [w] bits of [x] below its leading one;
   up to 62 bits that is one field. *)
let write_gamma b x =
  if x < 1 then invalid_arg "Codes.write_gamma: need x >= 1";
  let w = bits_needed x - 1 in
  if w <= 30 then
    Bitbuf.add_bits b ((((1 lsl w) - 1) lsl (w + 1)) lor (x - (1 lsl w))) ~width:((2 * w) + 1)
  else begin
    write_unary b w;
    Bitbuf.add_bits b (x - (1 lsl w)) ~width:w
  end

let read_gamma r =
  let w = read_unary r in
  (1 lsl w) lor Bitbuf.read_bits r ~width:w

let gamma_length x =
  if x < 1 then invalid_arg "Codes.gamma_length: need x >= 1";
  (2 * (bits_needed x - 1)) + 1

let write_delta b x =
  if x < 1 then invalid_arg "Codes.write_delta: need x >= 1";
  let w = bits_needed x - 1 in
  write_gamma b (w + 1);
  Bitbuf.add_bits b (x - (1 lsl w)) ~width:w

let read_delta r =
  let w = read_gamma r - 1 in
  (1 lsl w) lor Bitbuf.read_bits r ~width:w

let delta_length x =
  if x < 1 then invalid_arg "Codes.delta_length: need x >= 1";
  let w = bits_needed x - 1 in
  gamma_length (w + 1) + w

let write_rice b x ~k =
  if x < 0 || k < 0 then invalid_arg "Codes.write_rice";
  write_unary b (x lsr k);
  Bitbuf.add_bits b (x land ((1 lsl k) - 1)) ~width:k

let read_rice r ~k =
  let q = read_unary r in
  (q lsl k) lor Bitbuf.read_bits r ~width:k

let rice_length x ~k =
  if x < 0 || k < 0 then invalid_arg "Codes.rice_length";
  (x lsr k) + 1 + k

(* Fibonacci numbers 1, 2, 3, 5, 8, ... (F.(0) = 1, F.(1) = 2) as used
   by Zeckendorf representations; 86 terms stay within 62-bit ints. *)
let fibs =
  lazy
    (let a = Array.make 86 0 in
     a.(0) <- 1;
     a.(1) <- 2;
     for i = 2 to 85 do
       a.(i) <- a.(i - 1) + a.(i - 2)
     done;
     a)

let zeckendorf x =
  (* greedy: highest Fibonacci term <= x, repeatedly *)
  let f = Lazy.force fibs in
  let rec top i = if i > 0 && f.(i) > x then top (i - 1) else i in
  let rec go x i acc =
    if i < 0 then acc
    else if f.(i) <= x then go (x - f.(i)) (i - 1) (i :: acc)
    else go x (i - 1) acc
  in
  let hi = top 85 in
  go x hi []

let write_fibonacci b x =
  if x < 1 then invalid_arg "Codes.write_fibonacci: need x >= 1";
  let indices = zeckendorf x in
  let hi = List.fold_left max 0 indices in
  for i = 0 to hi do
    Bitbuf.add_bit b (List.mem i indices)
  done;
  Bitbuf.add_bit b true (* terminator: two consecutive ones *)

let read_fibonacci r =
  let f = Lazy.force fibs in
  let rec go i prev acc =
    let bit = Bitbuf.read_bit r in
    if bit && prev then acc
    else go (i + 1) bit (if bit then acc + f.(i) else acc)
  in
  go 0 false 0

let fibonacci_length x =
  if x < 1 then invalid_arg "Codes.fibonacci_length: need x >= 1";
  let hi = List.fold_left max 0 (zeckendorf x) in
  hi + 2

let bounded_length ~bound = ceil_log2 bound

let write_bounded b x ~bound =
  if x < 0 || x >= bound then invalid_arg "Codes.write_bounded: out of range";
  Bitbuf.add_bits b x ~width:(bounded_length ~bound)

let read_bounded r ~bound = Bitbuf.read_bits r ~width:(bounded_length ~bound)
