type t = { p : int; q : int; entries : int array array }

let check_shape entries =
  let p = Array.length entries in
  if p = 0 then invalid_arg "Matrix: no rows";
  let q = Array.length entries.(0) in
  if q = 0 then invalid_arg "Matrix: no columns";
  Array.iter
    (fun row ->
      if Array.length row <> q then invalid_arg "Matrix: ragged rows";
      Array.iter
        (fun x -> if x < 1 then invalid_arg "Matrix: entries must be >= 1")
        row)
    entries;
  (p, q)

(* A sorted copy with its runs collapsed, monomorphic. A row of up to 16
   entries, as every row of a Theorem-1 instance is, takes an insertion
   sort: Array.sort's heap sort, one closure call per comparison, took
   2-4 times as long on 8 and 16 entries, and with it alone a (4,8,8)
   instance ran 11% slower. A wider row takes Array.sort, so no row
   costs more than O(q log q). *)
let distinct_values (row : int array) =
  let s = Array.copy row in
  if Array.length s > 16 then Array.sort Int.compare s
  else
    for j = 1 to Array.length s - 1 do
      let x = s.(j) in
      let i = ref (j - 1) in
      while !i >= 0 && s.(!i) > x do
        s.(!i + 1) <- s.(!i);
        decr i
      done;
      s.(!i + 1) <- x
    done;
  let k = ref (min 1 (Array.length s)) in
  for j = 1 to Array.length s - 1 do
    if s.(j) <> s.(!k - 1) then begin
      s.(!k) <- s.(j);
      incr k
    end
  done;
  Array.sub s 0 !k

let distinct_count row = Array.length (distinct_values row)

let has_prefix_alphabet row =
  let k = distinct_count row in
  Array.for_all (fun x -> x >= 1 && x <= k) row

let create_relaxed entries =
  let p, q = check_shape entries in
  { p; q; entries = Array.map Array.copy entries }

let create entries =
  let m = create_relaxed entries in
  Array.iteri
    (fun i row ->
      if not (has_prefix_alphabet row) then
        invalid_arg
          (Printf.sprintf
             "Matrix: row %d does not use a prefix alphabet {1..k}" (i + 1)))
    m.entries;
  m

let get m i j =
  if i < 0 || i >= m.p || j < 0 || j >= m.q then invalid_arg "Matrix.get";
  m.entries.(i).(j)

let dims m = (m.p, m.q)

let row_alphabet m i =
  if i < 0 || i >= m.p then invalid_arg "Matrix.row_alphabet";
  distinct_count m.entries.(i)

let max_entry m =
  Array.fold_left
    (fun acc row -> Array.fold_left max acc row)
    0 m.entries

(* Monomorphic comparisons: [equal] sits on the hot path of class-size
   scans (once per raw matrix), where the polymorphic compare on nested
   arrays costs an order of magnitude more than these int loops. *)
let compare_row q (a : int array) (b : int array) =
  let rec go j =
    if j = q then 0
    else
      let x = a.(j) and y = b.(j) in
      if x < y then -1 else if x > y then 1 else go (j + 1)
  in
  go 0

let equal a b =
  a.p = b.p && a.q = b.q
  &&
  let rec rows i =
    i = a.p || (compare_row a.q a.entries.(i) b.entries.(i) = 0 && rows (i + 1))
  in
  rows 0

let compare_lex a b =
  if a.p <> b.p || a.q <> b.q then invalid_arg "Matrix.compare_lex: shape";
  let rec rows i =
    if i = a.p then 0
    else
      let c = compare_row a.q a.entries.(i) b.entries.(i) in
      if c <> 0 then c else rows (i + 1)
  in
  rows 0

let compare_lex_prefix prefix m =
  let len = Array.length prefix in
  if len > m.p * m.q then invalid_arg "Matrix.compare_lex_prefix: too long";
  let rec go k =
    if k = len then 0
    else
      let x = prefix.(k) and y = m.entries.(k / m.q).(k mod m.q) in
      if x < y then -1 else if x > y then 1 else go (k + 1)
  in
  go 0

let index m ~base =
  if base <= max_entry m - 1 then invalid_arg "Matrix.index: base too small";
  let acc = ref Bignat.zero in
  Array.iter
    (fun row ->
      Array.iter
        (fun x -> acc := Bignat.add (Bignat.mul_int !acc base) (Bignat.of_int (x - 1)))
        row)
    m.entries;
  !acc

let permute_rows m sigma =
  if Array.length sigma <> m.p then invalid_arg "Matrix.permute_rows";
  { m with entries = Array.init m.p (fun i -> Array.copy m.entries.(sigma.(i))) }

let permute_cols m sigma =
  if Array.length sigma <> m.q then invalid_arg "Matrix.permute_cols";
  {
    m with
    entries =
      Array.map (fun row -> Array.init m.q (fun j -> row.(sigma.(j)))) m.entries;
  }

let permute_row_entries m i pi =
  if i < 0 || i >= m.p then invalid_arg "Matrix.permute_row_entries: row";
  let k = distinct_count m.entries.(i) in
  if Array.length pi <> k || not (Umrs_graph.Perm.is_valid pi) then
    invalid_arg "Matrix.permute_row_entries: need a permutation of the alphabet";
  let entries =
    Array.mapi
      (fun r row ->
        if r <> i then Array.copy row
        else
          Array.map
            (fun v ->
              if v > k then
                invalid_arg "Matrix.permute_row_entries: row is not normalized";
              pi.(v - 1) + 1)
            row)
      m.entries
  in
  { m with entries }

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  Array.iteri
    (fun i row ->
      if i > 0 then Format.fprintf fmt "@,";
      Array.iteri
        (fun j x ->
          if j > 0 then Format.pp_print_char fmt ' ';
          Format.pp_print_int fmt x)
        row)
    m.entries;
  Format.fprintf fmt "@]"

let to_string m =
  let row_str row =
    String.concat " " (List.map string_of_int (Array.to_list row))
  in
  "[" ^ String.concat "; " (List.map row_str (Array.to_list m.entries)) ^ "]"

let of_string s =
  let s = String.trim s in
  let len = String.length s in
  if len < 2 || s.[0] <> '[' || s.[len - 1] <> ']' then
    invalid_arg "Matrix.of_string: expected [ ... ]";
  let body = String.sub s 1 (len - 2) in
  let rows = String.split_on_char ';' body in
  let parse_row r =
    String.split_on_char ' ' (String.trim r)
    |> List.filter (fun x -> x <> "")
    |> List.map int_of_string
    |> Array.of_list
  in
  create_relaxed (Array.of_list (List.map parse_row rows))
