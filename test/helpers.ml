(* Shared test utilities: fixed-seed RNG, qcheck generators for graphs
   and matrices, and alcotest shortcuts. *)

open Umrs_graph

let rng () = Random.State.make [| 0x5EED; 42 |]

let check_true name b = Alcotest.(check bool) name true b
let check_int name expected got = Alcotest.(check int) name expected got

let case name f = Alcotest.test_case name `Quick f

(* A graph file of examples/: the suite runs from _build/default/test
   under dune runtest and from the repository root under dune exec. *)
let fixture name =
  Graph_io.load
    ~path:(List.find Sys.file_exists
             [ Filename.concat "../examples" name; Filename.concat "examples" name ])

let prop ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name gen f)

(* A small random connected graph: n in [2, 24], m up to ~2n. *)
let connected_graph_gen =
  let open QCheck.Gen in
  let build (seed, n, extra) =
    let n = 2 + (abs n mod 23) in
    let max_m = n * (n - 1) / 2 in
    let m = min max_m (n - 1 + (abs extra mod (n + 1))) in
    let st = Random.State.make [| seed; n; m |] in
    Generators.random_connected st ~n ~m
  in
  map build (triple int int int)

let arbitrary_connected_graph =
  QCheck.make
    ~print:(fun g ->
      Format.asprintf "%a" Graph.pp g)
    connected_graph_gen

(* A random tree on [2, 32] vertices. *)
let tree_gen =
  let open QCheck.Gen in
  let build (seed, n) =
    let n = 2 + (abs n mod 31) in
    Generators.random_tree (Random.State.make [| seed; n; 7 |]) n
  in
  map build (pair int int)

let arbitrary_tree =
  QCheck.make ~print:(fun g -> Format.asprintf "%a" Graph.pp g) tree_gen

(* Random constraint matrix with normalized rows: p,q in [1,4], d <= 4. *)
let matrix_gen =
  let open QCheck.Gen in
  let build (seed, p, q) =
    let p = 1 + (abs p mod 4) and q = 1 + (abs q mod 4) in
    let st = Random.State.make [| seed; p; q |] in
    let entries =
      Array.init p (fun _ ->
          Umrs_core.Canonical.normalize_row
            (Array.init q (fun _ -> 1 + Random.State.int st 4)))
    in
    Umrs_core.Matrix.create entries
  in
  map build (triple int int int)

let arbitrary_matrix =
  QCheck.make ~print:Umrs_core.Matrix.to_string matrix_gen
