open Umrs_graph
open Umrs_routing
open Helpers

let test_partition_covers () =
  let g = Generators.torus 5 5 in
  let cluster_of, centers = Hierarchical_scheme.partition ~radius:1 g in
  check_true "everyone assigned" (Array.for_all (fun c -> c >= 0) cluster_of);
  Array.iteri
    (fun c center -> check_int "center in own cluster" c cluster_of.(center))
    centers;
  (* radius respected: every member within 1 of its center *)
  Array.iteri
    (fun v c -> check_true "radius" (Bfs.dist g centers.(c) v <= 1))
    cluster_of

let test_partition_radius_zero () =
  let g = Generators.path 5 in
  let _, centers = Hierarchical_scheme.partition ~radius:0 g in
  check_int "singletons" 5 (Array.length centers)

let test_default_radius_bounds_clusters () =
  let g = Generators.grid 6 6 in
  let r = Hierarchical_scheme.default_radius g in
  let _, centers = Hierarchical_scheme.partition ~radius:r g in
  check_true "at most sqrt n clusters" (Array.length centers <= 6)

let test_delivers_on_torus () =
  let g = Generators.torus 5 5 in
  let b = Hierarchical_scheme.build g in
  check_true "delivers" (Routing_function.delivers_all b.Scheme.rf);
  (* stretch finite and modest on a torus *)
  let s = Stretch_dist.exact b.Scheme.rf in
  check_true "stretch sane" (s.Stretch_dist.ds_max < 5.0)

let test_entry_count_win_on_big_cycle () =
  (* The classical Kleinrock-Kamoun claim is about table ENTRIES: a
     router keeps #clusters + |ball(2r)| entries instead of n-1. (In
     exact bits, the explicit vertex ids in the ball table eat much of
     the gain at this scale - measured honestly by the benches.) *)
  let g = Generators.cycle 96 in
  let r = Hierarchical_scheme.default_radius g in
  let cluster_of, centers = Hierarchical_scheme.partition ~radius:r g in
  ignore cluster_of;
  let max_ball =
    let worst = ref 0 in
    for v = 0 to 95 do
      let d = Bfs.distances g v in
      let b = Array.fold_left (fun acc x -> if x > 0 && x <= 2 * r then acc + 1 else acc) 0 d in
      worst := max !worst b
    done;
    !worst
  in
  check_true "entries shrink"
    (Array.length centers + max_ball < Graph.order g - 1)

let test_radius_tradeoff () =
  (* larger radius: fewer clusters, bigger balls; both deliver *)
  let g = Generators.grid 5 5 in
  List.iter
    (fun r ->
      let b = Hierarchical_scheme.build ~radius:r g in
      check_true
        (Printf.sprintf "radius %d delivers" r)
        (Routing_function.delivers_all b.Scheme.rf))
    [ 1; 2; 3 ]

let suite =
  [
    case "partition covers" test_partition_covers;
    case "radius 0 = singletons" test_partition_radius_zero;
    case "default radius bounds clusters" test_default_radius_bounds_clusters;
    case "delivers on torus" test_delivers_on_torus;
    case "entry count shrinks on a large cycle" test_entry_count_win_on_big_cycle;
    case "radius tradeoff" test_radius_tradeoff;
    prop ~count:30 "hierarchical delivers on random graphs"
      arbitrary_connected_graph (fun g ->
        Routing_function.delivers_all (Hierarchical_scheme.build g).Scheme.rf);
    prop ~count:30 "partition is a cover at any radius"
      arbitrary_connected_graph (fun g ->
        let st = rng () in
        let radius = Random.State.int st 3 in
        let cluster_of, centers = Hierarchical_scheme.partition ~radius g in
        Array.for_all (fun c -> c >= 0 && c < Array.length centers) cluster_of);
  ]
