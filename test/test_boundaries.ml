(* Boundary and negative cases that document where properties STOP
   holding - as informative as the positive suites. *)

open Umrs_core
open Umrs_graph
open Umrs_routing
open Helpers

let test_petersen_not_forced_below_two () =
  (* Figure 1 is a matrix of constraints of SHORTEST PATHS: at the
     stretch-<2 bound, odd cycles open length-3 alternatives, so the
     same matrix is no longer forced - the figure's stretch-1 phrasing
     is essential *)
  let t = Petersen.instance () in
  match
    Verify.check t.Petersen.graph ~constrained:t.Petersen.constrained
      ~targets:t.Petersen.targets t.Petersen.matrix ~bound:Verify.below_two
  with
  | Ok () -> Alcotest.fail "below-two forcing should fail on Petersen"
  | Error vs -> check_true "some pairs open up" (List.length vs > 0)

let test_treecover_addresses_polylog () =
  (* the O(log^2 n) labels the paper notes for [2]-style schemes *)
  List.iter
    (fun g ->
      let b = Tree_cover_scheme.build g in
      let n = Graph.order g in
      let log2n = Float.log (float_of_int n) /. Float.log 2.0 in
      let bound = int_of_float (8.0 *. (log2n +. 2.0) *. (log2n +. 2.0)) in
      check_true "header O(log^2 n)"
        (Routing_function.max_header_bits b.Scheme.rf <= bound))
    [ Generators.cycle 24; Generators.grid 5 5; Generators.petersen () ]

let test_hierarchical_radius_zero () =
  let g = Generators.cycle 8 in
  let b = Hierarchical_scheme.build ~radius:0 g in
  check_true "singleton clusters still deliver"
    (Routing_function.delivers_all b.Scheme.rf)

let test_attach_path_bad_anchor () =
  check_true "anchor out of range"
    (try ignore (Graph.attach_path (Generators.path 3) ~anchor:7 ~len:2); false
     with Invalid_argument _ -> true);
  check_true "negative length"
    (try ignore (Graph.attach_path (Generators.path 3) ~anchor:0 ~len:(-1)); false
     with Invalid_argument _ -> true)

let test_usable_ports_same_vertex () =
  let g = Generators.cycle 5 in
  let dist = Bfs.all_pairs g in
  check_true "src=dst rejected"
    (try
       ignore
         (Verify.usable_ports g ~dist ~src:1 ~dst:1
            ~bound:Verify.shortest_paths_only);
       false
     with Invalid_argument _ -> true)

let test_lower_bound_rejects_bad_eps () =
  List.iter
    (fun eps ->
      check_true "bad eps"
        (try ignore (Lower_bound.choose_params ~n:1024 ~eps); false
         with Invalid_argument _ -> true))
    [ 0.0; 1.0; -0.5; 2.0 ]

let test_matrix_of_string_errors () =
  let rejects s =
    try ignore (Matrix.of_string s); false
    with Invalid_argument _ | Failure _ -> true
  in
  check_true "no brackets" (rejects "1 2; 1 1");
  check_true "empty" (rejects "[]");
  check_true "garbage" (rejects "[a b]")

let test_cgraph_rejects_relaxed_rows () =
  (* a relaxed (non-prefix) matrix cannot wire ports *)
  let m = Matrix.create_relaxed [| [| 2; 3 |] |] in
  check_true "rejected"
    (try ignore (Cgraph.of_matrix m); false
     with Invalid_argument _ -> true)

let test_spanner_rejects_disconnected () =
  check_true "rejected"
    (try ignore (Umrs_spanner.Spanner.greedy (Graph.empty 3) ~k:2); false
     with Invalid_argument _ -> true)

let test_simulator_rejects_self_pair () =
  let rf = (Table_scheme.build (Generators.path 3)).Scheme.rf in
  check_true "rejected"
    (try ignore (Simulator.run rf ~pairs:[ (1, 1) ]); false
     with Invalid_argument _ -> true)

let test_interval_disconnected () =
  check_true "rejected"
    (try ignore (Interval_routing.compile (Graph.empty 4)); false
     with Invalid_argument _ -> true)

let test_bignat_reconstruction () =
  let st = rng () in
  for _ = 1 to 50 do
    let a = Random.State.int st 1000000 and b = 1 + Random.State.int st 9999 in
    let big =
      Bignat.mul (Bignat.pow (Bignat.of_int 10) 12) (Bignat.of_int a)
    in
    let q, r = Bignat.div_int big b in
    check_true "a = q*b + r"
      (Bignat.equal big (Bignat.add (Bignat.mul_int q b) (Bignat.of_int r)))
  done


let test_large_scale_smoke () =
  (* performance guard: n = 512 builds and routes without quadratic
     blow-ups in the encodings *)
  let st = rng () in
  let g = Generators.random_connected st ~n:512 ~m:1200 in
  let tables = Table_scheme.build g in
  check_true "tables local sane"
    (Scheme.mem_local tables <= 511 * 8);
  let iv = Interval_routing.build g in
  check_true "interval built" (Scheme.mem_local iv > 0);
  (* spot-check routes *)
  for _ = 1 to 20 do
    let u = Random.State.int st 512 and v = Random.State.int st 512 in
    if u <> v then begin
      let t = Routing_function.route tables.Scheme.rf u v in
      check_true "delivered" (t.Routing_function.hops >= 1)
    end
  done;
  check_true "sampled stretch 1"
    ((Stretch_dist.sampled ~seed:(Random.State.bits st) ~pairs:30 tables.Scheme.rf)
       .Stretch_dist.ds_max
    <= 1.0 +. 1e-9)

let suite =
  [
    case "petersen matrix not forced at stretch <2"
      test_petersen_not_forced_below_two;
    case "tree-cover addresses are polylog" test_treecover_addresses_polylog;
    case "hierarchical radius 0" test_hierarchical_radius_zero;
    case "attach_path validation" test_attach_path_bad_anchor;
    case "usable_ports src=dst" test_usable_ports_same_vertex;
    case "lower bound bad eps" test_lower_bound_rejects_bad_eps;
    case "matrix parse errors" test_matrix_of_string_errors;
    case "cgraph rejects relaxed rows" test_cgraph_rejects_relaxed_rows;
    case "spanner rejects disconnected" test_spanner_rejects_disconnected;
    case "simulator rejects self pairs" test_simulator_rejects_self_pair;
    case "interval rejects disconnected" test_interval_disconnected;
    case "bignat division reconstruction" test_bignat_reconstruction;
    case "large-scale smoke (n=512)" test_large_scale_smoke;
  ]
