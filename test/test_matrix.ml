open Umrs_core
open Umrs_graph
open Helpers

let m_ex () = Matrix.create [| [| 1; 2; 1 |]; [| 1; 1; 2 |] |]

let test_create_validates () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_true "prefix ok" (Matrix.dims (m_ex ()) = (2, 3));
  check_true "non-prefix rejected"
    (raises (fun () -> Matrix.create [| [| 2; 3 |] |]));
  check_true "zero rejected" (raises (fun () -> Matrix.create [| [| 0; 1 |] |]));
  check_true "ragged rejected"
    (raises (fun () -> Matrix.create_relaxed [| [| 1 |]; [| 1; 2 |] |]));
  check_true "empty rejected" (raises (fun () -> Matrix.create [||]));
  (* relaxed accepts non-prefix rows *)
  check_true "relaxed accepts"
    (Matrix.dims (Matrix.create_relaxed [| [| 3; 5 |] |]) = (1, 2))

let test_accessors () =
  let m = m_ex () in
  check_int "get" 2 (Matrix.get m 0 1);
  check_int "row alphabet" 2 (Matrix.row_alphabet m 0);
  check_int "max entry" 2 (Matrix.max_entry m)

let test_index () =
  (* the paper's index example: digits m_ij - 1 read in base d *)
  let m = Matrix.create [| [| 1; 2 |]; [| 1; 1 |] |] in
  check_true "index 9 in base 3"
    (Bignat.to_int_opt (Matrix.index m ~base:3) = Some 9);
  let m' = Matrix.create [| [| 1; 1 |]; [| 1; 2 |] |] in
  check_true "index 1 in base 3"
    (Bignat.to_int_opt (Matrix.index m' ~base:3) = Some 1)

let test_compare_lex_consistent_with_index () =
  let a = Matrix.create [| [| 1; 1 |]; [| 1; 2 |] |] in
  let b = Matrix.create [| [| 1; 2 |]; [| 1; 1 |] |] in
  check_true "lex order" (Matrix.compare_lex a b < 0);
  check_true "index order"
    (Bignat.compare (Matrix.index a ~base:3) (Matrix.index b ~base:3) < 0)

let test_permute_rows_cols () =
  let m = m_ex () in
  let mr = Matrix.permute_rows m [| 1; 0 |] in
  check_true "row content" (Matrix.get mr 0 0 = 1 && Matrix.get mr 0 1 = 1 && Matrix.get mr 0 2 = 2);
  let mc = Matrix.permute_cols m [| 2; 0; 1 |] in
  (* new column j = old column sigma(j) *)
  check_true "col content" (Matrix.get mc 0 0 = 1 && Matrix.get mc 0 1 = 1 && Matrix.get mc 0 2 = 2)

let test_permute_row_entries () =
  let m = m_ex () in
  let m' = Matrix.permute_row_entries m 0 [| 1; 0 |] in
  check_true "row 0 relabelled"
    (Matrix.get m' 0 0 = 2 && Matrix.get m' 0 1 = 1 && Matrix.get m' 0 2 = 2);
  check_true "row 1 untouched" (Matrix.get m' 1 0 = 1 && Matrix.get m' 1 2 = 2)

let test_string_roundtrip () =
  let m = m_ex () in
  Alcotest.(check string) "to_string" "[1 2 1; 1 1 2]" (Matrix.to_string m);
  check_true "roundtrip" (Matrix.equal m (Matrix.of_string (Matrix.to_string m)))

(* ---------- the row loops against the polymorphic definitions ---------- *)

let distinct_oracle row = List.sort_uniq compare (Array.to_list row)

(* Matrix.create as it stood: shape, then every row's prefix alphabet
   through List.sort_uniq. *)
let create_oracle entries =
  let m = Matrix.create_relaxed entries in
  Array.iteri
    (fun i row ->
      let k = List.length (distinct_oracle row) in
      if not (Array.for_all (fun x -> x >= 1 && x <= k) row) then
        invalid_arg
          (Printf.sprintf "Matrix: row %d does not use a prefix alphabet {1..k}" (i + 1)))
    entries;
  m

(* One to four rows of one width: a Gen.int_row, then copies of it or
   rows over 1..width. *)
let rows_case =
  Gen.make
    ~print:(fun rows -> String.concat "; " (Array.to_list (Array.map Gen.int_row.Gen.print rows)))
    (fun st ->
      let first = Gen.int_row.Gen.gen st in
      let q = Array.length first in
      Array.init (1 + Random.State.int st 4) (fun i ->
          if i = 0 then first
          else if Random.State.bool st then Array.init q (fun _ -> 1 + Random.State.int st q)
          else Array.init q (fun j -> first.(j))))

let rows_match_oracles rows =
  let outcome f = match f () with m -> Ok (Matrix.to_string m) | exception Invalid_argument e -> Error e in
  Array.for_all (fun row -> Array.to_list (Matrix.distinct_values row) = distinct_oracle row) rows
  && outcome (fun () -> Matrix.create rows) = outcome (fun () -> create_oracle rows)
  &&
  match Matrix.create_relaxed rows with
  | m ->
    List.for_all
      (fun i -> Matrix.row_alphabet m i = List.length (distinct_oracle rows.(i)))
      (List.init (Array.length rows) Fun.id)
  | exception Invalid_argument _ -> Array.exists (Array.exists (fun x -> x < 1)) rows

let suite =
  [
    case "create validates" test_create_validates;
    case "accessors" test_accessors;
    case "index (paper example)" test_index;
    case "compare_lex consistent with index" test_compare_lex_consistent_with_index;
    case "permute rows/cols" test_permute_rows_cols;
    case "permute row entries" test_permute_row_entries;
    case "string roundtrip" test_string_roundtrip;
    prop "string roundtrip (random)" arbitrary_matrix (fun m ->
        Matrix.equal m (Matrix.of_string (Matrix.to_string m)));
    prop "row permutation preserves multiset of rows" arbitrary_matrix
      (fun m ->
        let p, _ = Matrix.dims m in
        let st = rng () in
        let m' = Matrix.permute_rows m (Perm.random st p) in
        let rows mm =
          List.sort compare
            (List.init p (fun i ->
                 Array.to_list
                   (Array.init (snd (Matrix.dims mm)) (Matrix.get mm i))))
        in
        rows m = rows m');
    prop "lex order is total and antisymmetric" (QCheck.pair arbitrary_matrix arbitrary_matrix)
      (fun (a, b) ->
        let pa, qa = Matrix.dims a and pb, qb = Matrix.dims b in
        pa <> pb || qa <> qb
        ||
        let c1 = Matrix.compare_lex a b and c2 = Matrix.compare_lex b a in
        (c1 = 0 && c2 = 0 && Matrix.equal a b)
        || (c1 < 0 && c2 > 0)
        || (c1 > 0 && c2 < 0));
    Gen.prop ~count:400 "row_alphabet, create = polymorphic definitions" rows_case
      rows_match_oracles;
  ]
