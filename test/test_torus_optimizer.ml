open Umrs_graph
open Umrs_routing
open Helpers

(* ---------- torus_nd + dimension-order routing ---------- *)

let test_torus_nd_structure () =
  let g = Generators.torus_nd [ 3; 4; 5 ] in
  check_int "order" 60 (Graph.order g);
  check_true "6-regular" (Props.is_regular g && Graph.degree g 0 = 6);
  check_true "connected" (Bfs.is_connected g);
  (* matches the 2-d generator metrically *)
  let g2 = Generators.torus_nd [ 4; 4 ] and t2 = Generators.torus 4 4 in
  check_int "same diameter as torus 4x4" (Bfs.diameter t2) (Bfs.diameter g2)

let test_torus_nd_validation () =
  check_true "dim >= 3"
    (try ignore (Generators.torus_nd [ 2; 3 ]); false
     with Invalid_argument _ -> true);
  check_true "nonempty"
    (try ignore (Generators.torus_nd []); false
     with Invalid_argument _ -> true)

let test_dor_correct () =
  List.iter
    (fun dims ->
      let g = Generators.torus_nd dims in
      let b = Specialized.build_torus_dor ~dims g in
      check_true "delivers" (Routing_function.delivers_all b.Scheme.rf);
      check_true "stretch 1"
        (Routing_function.stretch_at_most b.Scheme.rf ~num:1 ~den:1))
    [ [ 3; 3 ]; [ 4; 5 ]; [ 3; 3; 3 ] ]

let test_dor_memory_logarithmic () =
  let bits dims =
    Scheme.mem_local (Specialized.build_torus_dor ~dims (Generators.torus_nd dims))
  in
  check_true "O(log n)" (bits [ 8; 8; 8 ] < 48)

let test_dor_rejects_wrong_graph () =
  check_true "hypercube rejected"
    (try
       ignore (Specialized.build_torus_dor ~dims:[ 4; 4 ] (Generators.hypercube 4));
       false
     with Invalid_argument _ -> true);
  check_true "wrong dims rejected"
    (try
       ignore
         (Specialized.build_torus_dor ~dims:[ 3; 3 ] (Generators.torus_nd [ 3; 4 ]));
       false
     with Invalid_argument _ -> true)

(* ---------- interval labelling optimizer ---------- *)

let test_optimizer_never_worse_than_dfs () =
  let st = rng () in
  for _ = 1 to 5 do
    let g = Generators.random_connected st ~n:14 ~m:25 in
    let dfs = Interval_routing.compile ~labelling:Interval_routing.Dfs g in
    let opt = Interval_routing.optimize_labelling ~steps:100 st g in
    check_true "compactness no worse"
      (Interval_routing.compactness opt <= Interval_routing.compactness dfs)
  done

let test_optimizer_reaches_one_on_cycles () =
  let st = rng () in
  let g = Generators.cycle 12 in
  let opt = Interval_routing.optimize_labelling st g in
  check_int "1-IRS on cycles" 1 (Interval_routing.compactness opt)

let test_optimizer_improves_globe () =
  let st = rng () in
  let g = Generators.globe ~meridians:5 ~parallels:3 in
  let dfs = Interval_routing.compile ~labelling:Interval_routing.Dfs g in
  let opt = Interval_routing.optimize_labelling ~steps:800 st g in
  check_true "total intervals reduced or equal"
    (Interval_routing.total_intervals opt
    <= Interval_routing.total_intervals dfs)

let test_optimized_scheme_is_valid () =
  let scheme = Interval_routing.scheme_optimized ~steps:120 ~seed:7 () in
  let st = rng () in
  let g = Generators.random_connected st ~n:12 ~m:20 in
  let b = scheme.Scheme.build g in
  check_true "stretch 1"
    (Routing_function.stretch_at_most b.Scheme.rf ~num:1 ~den:1)

let suite =
  [
    case "torus_nd structure" test_torus_nd_structure;
    case "torus_nd validation" test_torus_nd_validation;
    case "dimension-order routing correct" test_dor_correct;
    case "dor memory O(log n)" test_dor_memory_logarithmic;
    case "dor validates wiring" test_dor_rejects_wrong_graph;
    case "optimizer never worse than DFS" test_optimizer_never_worse_than_dfs;
    case "optimizer perfects cycles" test_optimizer_reaches_one_on_cycles;
    case "optimizer attacks the globe" test_optimizer_improves_globe;
    case "optimized scheme valid" test_optimized_scheme_is_valid;
    prop ~count:20 "optimized labelling still routes shortest"
      arbitrary_connected_graph (fun g ->
        let st = rng () in
        let t = Interval_routing.optimize_labelling ~steps:60 st g in
        ignore (Interval_routing.compactness t);
        (* rebuild a scheme from the optimized labels through the public
           scheme constructor and check it *)
        let scheme = Interval_routing.scheme_optimized ~steps:60 ~seed:3 () in
        Routing_function.stretch_at_most (scheme.Scheme.build g).Scheme.rf
          ~num:1 ~den:1);
  ]
