open Umrs_core
open Helpers

let test_normalize_row () =
  check_true "example" (Canonical.normalize_row [| 3; 1; 3; 2 |] = [| 1; 2; 1; 3 |]);
  check_true "already normal" (Canonical.normalize_row [| 1; 2; 3 |] = [| 1; 2; 3 |]);
  check_true "constant" (Canonical.normalize_row [| 7; 7 |] = [| 1; 1 |]);
  check_true "reversed" (Canonical.normalize_row [| 2; 1 |] = [| 1; 2 |])

let test_canonical_explicit () =
  (* the paper's worked pair: [1 2; 1 1] reduces to [1 1; 1 2] *)
  let m = Matrix.create [| [| 1; 2 |]; [| 1; 1 |] |] in
  let c = Canonical.canonical m in
  Alcotest.(check string) "canonical" "[1 1; 1 2]" (Matrix.to_string c)

let test_canonical_uses_column_perm () =
  (* [2 1; 1 1] needs a column swap (after row relabel) to reach the
     minimum *)
  let m = Matrix.create_relaxed [| [| 2; 1 |]; [| 1; 1 |] |] in
  Alcotest.(check string)
    "canonical" "[1 1; 1 2]"
    (Matrix.to_string (Canonical.canonical m))

let test_canonical_full_relabels () =
  (* opposite-direction rows merge under the Full variant only *)
  let m = Matrix.create [| [| 1; 2 |]; [| 2; 1 |] |] in
  Alcotest.(check string)
    "full" "[1 2; 1 2]"
    (Matrix.to_string (Canonical.canonical ~variant:Canonical.Full m));
  Alcotest.(check string)
    "positional" "[1 2; 2 1]"
    (Matrix.to_string (Canonical.canonical ~variant:Canonical.Positional m))

let test_equivalent () =
  let a = Matrix.create [| [| 1; 2 |]; [| 1; 1 |] |] in
  let b = Matrix.create [| [| 1; 1 |]; [| 2; 1 |] |] in
  check_true "equivalent" (Canonical.equivalent a b);
  let c = Matrix.create [| [| 1; 2 |]; [| 1; 2 |] |] in
  check_true "not equivalent" (not (Canonical.equivalent a c))

let test_is_canonical () =
  check_true "min is canonical"
    (Canonical.is_canonical (Matrix.create [| [| 1; 1 |]; [| 1; 2 |] |]));
  check_true "non-min is not"
    (not (Canonical.is_canonical (Matrix.create [| [| 1; 2 |]; [| 1; 1 |] |])))

(* Random props below draw from Gen (seeded, shrinking, repro-seed
   printing) rather than ad-hoc per-test RNG. The ~-move pair bundles
   the move into the generator so the whole counterexample is replayed
   and printed together. *)

let equiv_pair_arb =
  (* random_equivalent's alphabet moves require normalized rows *)
  let matrix = Gen.matrix_normalized ~max_q:8 ~max_d:8 () in
  Gen.make
    ~print:(fun (m, m') ->
      Printf.sprintf "%s ~ %s" (Matrix.to_string m) (Matrix.to_string m'))
    (fun st ->
      let m = matrix.Gen.gen st in
      (m, Canonical.random_equivalent st m))

let positional_pair_arb =
  let matrix = Gen.matrix_normalized () in
  Gen.make
    ~print:(fun (m, m') ->
      Printf.sprintf "%s ~ %s" (Matrix.to_string m) (Matrix.to_string m'))
    (fun st ->
      let m = matrix.Gen.gen st in
      let p, q = Matrix.dims m in
      let m' =
        (* positional ~-move: rows and columns only *)
        Matrix.permute_cols
          (Matrix.permute_rows m (Umrs_graph.Perm.random st p))
          (Umrs_graph.Perm.random st q)
      in
      (m, m'))

(* Randomized (p, q, d), kept to instances the full d^(pq) enumeration
   can afford inside the suite. *)
let instance_arb =
  let pool =
    [| (1, 1, 1); (1, 4, 4); (4, 1, 4); (2, 2, 2); (2, 2, 3); (2, 2, 4);
       (3, 2, 2); (2, 3, 3); (3, 3, 2); (2, 4, 3) |]
  in
  Gen.make
    ~print:(fun ((p, q, d), variant) ->
      Printf.sprintf "p=%d q=%d d=%d (%s)" p q d
        (match variant with
        | Canonical.Full -> "full"
        | Canonical.Positional -> "positional"))
    (fun st ->
      ( pool.(Random.State.int st (Array.length pool)),
        if Random.State.bool st then Canonical.Full else Canonical.Positional ))

(* Definition 2 computed the slow way, independently of the workspace
   search: over every column order, relabel each row by first
   occurrence (Full only), sort the rows, keep the compare_lex
   minimum. *)
let oracle ~variant m =
  let p, q = Matrix.dims m in
  let best = ref None in
  Umrs_graph.Perm.iter_all q (fun sigma ->
      let rows =
        Array.init p (fun i ->
            let row = Array.init q (fun j -> Matrix.get m i sigma.(j)) in
            match variant with
            | Canonical.Full -> Canonical.normalize_row row
            | Canonical.Positional -> row)
      in
      Array.sort compare rows;
      let c = Matrix.create_relaxed rows in
      match !best with
      | Some b when Matrix.compare_lex b c <= 0 -> ()
      | _ -> best := Some c);
  Option.get !best

let agrees_with_oracle m =
  List.for_all
    (fun variant -> Matrix.equal (Canonical.canonical ~variant m) (oracle ~variant m))
    [ Canonical.Full; Canonical.Positional ]

let test_oracle_exhaustive () =
  List.iter
    (fun (p, q, d) ->
      Enumerate.iter_matrices ~p ~q ~d (fun m ->
          if not (agrees_with_oracle m) then
            Alcotest.failf "(%d,%d,%d): canonical differs from the definition on %s" p q d
              (Matrix.to_string m)))
    [ (2, 3, 3); (3, 3, 2); (2, 4, 3); (3, 2, 4) ]

let test_oracle_edge_cases () =
  let perm_rows =
    (* every row a permutation of 1..8, so every column order is a path *)
    [| [| 1; 2; 3; 4; 5; 6; 7; 8 |]; [| 8; 7; 6; 5; 4; 3; 2; 1 |];
       [| 3; 1; 8; 6; 2; 7; 4; 5 |]; [| 6; 4; 2; 8; 1; 3; 5; 7 |] |]
  in
  List.iter
    (fun (name, rows) ->
      check_true name (agrees_with_oracle (Matrix.create_relaxed rows)))
    [
      ("constant 4x8", Array.make_matrix 4 8 3);
      ("rows are permutations of 1..8", perm_rows);
      ("all columns identical", Array.init 4 (fun i -> Array.make 8 (i + 1)));
      ("one row", [| [| 4; 1; 4; 2; 7; 1; 4; 5 |] |]);
      ("one column", [| [| 3 |]; [| 1 |]; [| 3 |]; [| 2 |] |]);
    ]

(* normalize_row as it stood, a Hashtbl per row: the oracle for the
   rank loop. *)
let normalize_oracle row =
  let next = ref 0 and rename = Hashtbl.create 8 in
  Array.map
    (fun v ->
      match Hashtbl.find_opt rename v with
      | Some r -> r
      | None ->
        incr next;
        Hashtbl.add rename v !next;
        !next)
    row

(* A matrix over 1..d and a strictly increasing map of 1..d into all of
   the positive ints, most often far past p * q. *)
let relabel_case =
  let matrix = Gen.matrix ~max_q:8 ~max_d:8 () in
  Gen.make
    ~print:(fun (m, f) ->
      Printf.sprintf "%s under %s" (Matrix.to_string m)
        (String.concat " " (Array.to_list (Array.map string_of_int f))))
    (fun st ->
      let m = matrix.Gen.gen st in
      let d = Matrix.max_entry m in
      let top = match Random.State.int st 3 with 0 -> d | 1 -> 1 lsl 20 | _ -> max_int in
      let f = Array.make d 0 in
      (* d increasing values, each at most [step] past the last, so
         none passes top *)
      let step = max 1 ((top - d) / d) and x = ref 0 in
      for v = 0 to d - 1 do
        x := !x + 1 + Random.State.full_int st step;
        f.(v) <- !x
      done;
      (m, f))

let commutes_with_relabelling (m, f) =
  let map m = Matrix.create_relaxed (Array.map (Array.map (fun v -> f.(v - 1))) (m : Matrix.t).Matrix.entries) in
  let positional = Canonical.canonical ~variant:Canonical.Positional in
  Matrix.equal (positional (map m)) (map (positional m))
  && Matrix.equal (Canonical.canonical (map m)) (Canonical.canonical m)

let suite =
  [
    case "canonical = definition on every small matrix" test_oracle_exhaustive;
    case "canonical = definition on edge cases" test_oracle_edge_cases;
    Gen.prop ~count:100 "canonical = definition on seeded matrices up to 4x8"
      (Gen.matrix ~max_q:8 ~max_d:8 ()) agrees_with_oracle;
    case "normalize_row" test_normalize_row;
    case "canonical (paper pair)" test_canonical_explicit;
    case "canonical uses column perms" test_canonical_uses_column_perm;
    case "full vs positional variants" test_canonical_full_relabels;
    case "equivalent" test_equivalent;
    case "is_canonical" test_is_canonical;
    Gen.prop ~count:200 "canonical is idempotent" (Gen.matrix ()) (fun m ->
        let c = Canonical.canonical m in
        Matrix.equal c (Canonical.canonical c));
    Gen.prop ~count:200 "canonical invariant under random ~-moves"
      equiv_pair_arb (fun (m, m') ->
        Matrix.equal (Canonical.canonical m) (Canonical.canonical m'));
    Gen.prop ~count:200 "canonical result has normalized rows" (Gen.matrix ())
      (fun m ->
        let c = Canonical.canonical m in
        let p, q = Matrix.dims c in
        List.for_all
          (fun i ->
            Canonical.normalize_row (Array.init q (Matrix.get c i))
            = Array.init q (Matrix.get c i))
          (List.init p Fun.id));
    Gen.prop ~count:200 "canonical <= input in lex order" (Gen.matrix ())
      (fun m -> Matrix.compare_lex (Canonical.canonical m) m <= 0);
    Gen.prop ~count:100 "positional canonical also idempotent/invariant"
      positional_pair_arb (fun (m, m') ->
        let pc = Canonical.canonical ~variant:Canonical.Positional in
        Matrix.equal (pc m) (pc m') && Matrix.equal (pc m) (pc (pc m)));
    Gen.prop ~count:25 "canonical sets are strictly sorted and dup-free"
      instance_arb (fun ((p, q, d), variant) ->
        let set = Enumerate.canonical_set ~variant ~p ~q ~d () in
        let rec strictly_increasing = function
          | a :: (b :: _ as rest) ->
            Matrix.compare_lex a b < 0 && strictly_increasing rest
          | _ -> true
        in
        strictly_increasing set
        && List.for_all (fun m -> Canonical.is_canonical ~variant m) set);
    Gen.prop ~count:400 "normalize_row = per-row Hashtbl definition" Gen.int_row (fun row ->
        Canonical.normalize_row row = normalize_oracle row);
    Gen.prop ~count:300 "canonical commutes with order-preserving relabelling" relabel_case
      commutes_with_relabelling;
  ]
