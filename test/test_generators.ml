open Umrs_graph
open Helpers

let test_path_cycle_complete () =
  check_int "path edges" 4 (Graph.size (Generators.path 5));
  check_int "cycle edges" 5 (Graph.size (Generators.cycle 5));
  check_int "K6 edges" 15 (Graph.size (Generators.complete 6));
  check_true "K6 regular" (Props.is_regular (Generators.complete 6))

let test_complete_sorted_ports () =
  let g = Generators.complete 5 in
  for v = 0 to 4 do
    let nb = Graph.neighbors g v in
    let sorted = Array.copy nb in
    Array.sort compare sorted;
    check_true "ports sorted" (nb = sorted)
  done

let test_bipartite_star_wheel () =
  let g = Generators.complete_bipartite 3 4 in
  check_int "K34 edges" 12 (Graph.size g);
  check_true "K34 bipartite" (Props.is_bipartite g);
  check_int "star edges" 6 (Graph.size (Generators.star 7));
  let w = Generators.wheel 6 in
  check_int "wheel edges" 10 (Graph.size w);
  check_int "hub degree" 5 (Graph.degree w 0)

let test_hypercube () =
  let g = Generators.hypercube 5 in
  check_int "order" 32 (Graph.order g);
  check_true "5-regular" (Props.is_regular g && Graph.degree g 0 = 5);
  (* port k flips bit k-1 *)
  check_int "port flip" (6 lxor 4) (Graph.neighbor g 6 ~port:3);
  check_true "bipartite" (Props.is_bipartite g)

(* The 4-cube is K2^4: u ~ v iff u and v differ in exactly one bit. *)
let test_hypercube_is_k2_power () =
  let g = Generators.hypercube 4 in
  check_int "edges" 32 (Graph.size g);
  for u = 0 to 15 do
    for v = 0 to 15 do
      let x = u lxor v in
      check_true
        (Printf.sprintf "%d ~ %d" u v)
        (Graph.mem_edge g u v = (x <> 0 && x land (x - 1) = 0))
    done
  done

(* The 4x5 torus is C4 x C5: vertex y*4 + x is adjacent exactly to its
   +-1 neighbours mod 4 in x and mod 5 in y. *)
let test_torus_is_cycle_product () =
  let g = Generators.torus 4 5 in
  let id x y = (y * 4) + x in
  check_int "edges" 40 (Graph.size g);
  for u = 0 to 19 do
    let x = u mod 4 and y = u / 4 in
    let nbrs =
      [ id ((x + 1) mod 4) y; id ((x + 3) mod 4) y;
        id x ((y + 1) mod 5); id x ((y + 4) mod 5) ]
    in
    for v = 0 to 19 do
      check_true
        (Printf.sprintf "%d ~ %d" u v)
        (Graph.mem_edge g u v = List.mem v nbrs)
    done
  done

let test_grid_torus () =
  let g = Generators.grid 4 3 in
  check_int "grid edges" ((3 * 3) + (2 * 4)) (Graph.size g);
  check_int "grid diameter" 5 (Bfs.diameter g);
  let t = Generators.torus 4 4 in
  check_true "torus 4-regular" (Props.is_regular t && Graph.degree t 0 = 4);
  check_int "torus diameter" 4 (Bfs.diameter t)

let test_petersen () =
  let g = Generators.petersen () in
  check_int "order" 10 (Graph.order g);
  check_int "size" 15 (Graph.size g);
  check_true "3-regular" (Props.is_regular g && Graph.degree g 0 = 3);
  check_int "diameter" 2 (Bfs.diameter g);
  check_true "girth 5" (Props.girth g = Some 5)

let test_generalized_petersen () =
  let g = Generators.generalized_petersen 7 2 in
  check_int "order" 14 (Graph.order g);
  check_true "3-regular" (Props.is_regular g);
  check_true "connected" (Bfs.is_connected g)

let test_random_tree () =
  let st = rng () in
  for n = 1 to 20 do
    let t = Generators.random_tree st n in
    check_int "order" n (Graph.order t);
    check_true "is tree" (n = 1 || Props.is_tree t)
  done

let test_caterpillar () =
  let st = rng () in
  let g = Generators.caterpillar st ~spine:5 ~legs:7 in
  check_true "caterpillar is a tree" (Props.is_tree g);
  check_int "order" 12 (Graph.order g)

let test_k_tree_chordal () =
  let st = rng () in
  let g = Generators.k_tree st ~k:2 12 in
  check_true "connected" (Bfs.is_connected g);
  check_int "2-tree edge count" (3 + (2 * 9)) (Graph.size g);
  check_true "chordal" (Props.is_chordal g)

let test_outerplanar () =
  let st = rng () in
  let g = Generators.maximal_outerplanar st 10 in
  (* maximal outerplanar on n vertices has 2n-3 edges *)
  check_int "edges 2n-3" 17 (Graph.size g);
  check_true "connected" (Bfs.is_connected g);
  check_true "triangulated polygons are chordal" (Props.is_chordal g)

let test_unit_circular_arc () =
  let st = rng () in
  match Generators.unit_circular_arc st ~n:20 ~arc:0.4 with
  | Some g ->
    check_int "order" 20 (Graph.order g);
    check_true "connected" (Bfs.is_connected g)
  | None -> Alcotest.fail "arc 0.4 on 20 vertices should connect"

let test_random_connected () =
  let st = rng () in
  let g = Generators.random_connected st ~n:15 ~m:30 in
  check_int "edges" 30 (Graph.size g);
  check_true "connected" (Bfs.is_connected g)

let test_random_regular () =
  let st = rng () in
  let g = Generators.random_regular st ~n:12 ~d:3 in
  check_true "3-regular" (Props.is_regular g && Graph.degree g 0 = 3);
  check_true "connected" (Bfs.is_connected g)

let test_de_bruijn () =
  let g = Generators.de_bruijn_like 4 in
  check_int "order" 16 (Graph.order g);
  check_true "connected" (Bfs.is_connected g);
  check_true "degree <= 4" (Graph.max_degree g <= 4);
  check_true "diameter <= dim" (Bfs.diameter g <= 4)

let test_scale_free_deterministic () =
  (* same seed => byte-identical serialization, independent of how many
     worker domains the host uses (the generators are sequential) *)
  let gen seed =
    let st = Random.State.make [| seed |] in
    let ba = Generators.barabasi_albert st ~n:120 ~m:2 in
    let pl = Generators.chung_lu st ~n:120 ~exponent:2.5 in
    (Graph_io.to_string ba, Graph_io.to_string pl)
  in
  let a1, a2 = gen 42 and b1, b2 = gen 42 in
  check_true "ba replays byte-identically" (a1 = b1);
  check_true "chung-lu replays byte-identically" (a2 = b2);
  let c1, _ = gen 43 in
  check_true "different seed differs" (a1 <> c1)

let test_barabasi_albert_degrees () =
  let st = Random.State.make [| 0xBA |] in
  let m = 3 in
  let g = Generators.barabasi_albert st ~n:256 ~m in
  check_true "connected" (Bfs.is_connected g);
  check_int "edge count" (((m + 1) * m / 2) + (m * (256 - m - 1)))
    (Graph.size g);
  let min_deg = ref max_int in
  for v = 0 to 255 do
    min_deg := min !min_deg (Graph.degree g v)
  done;
  check_int "min degree is the attachment parameter" m !min_deg;
  (* preferential attachment concentrates edges on early hubs *)
  check_true "heavy tail: a hub well above the minimum"
    (Graph.max_degree g >= 4 * m)

let test_chung_lu_connected () =
  let st = Random.State.make [| 0xC7 |] in
  for n = 10 to 15 do
    let g = Generators.chung_lu st ~n:(n * 13) ~exponent:2.5 in
    check_true "connected" (Bfs.is_connected g);
    check_int "order" (n * 13) (Graph.order g)
  done

let test_fixture_round_trip () =
  List.iter
    (fun name ->
      let g = fixture name in
      check_true (name ^ " connected") (Bfs.is_connected g);
      check_true (name ^ " non-trivial") (Graph.order g >= 32);
      let s = Graph_io.to_string g in
      check_true (name ^ " round-trips exactly")
        (Graph_io.to_string (Graph_io.of_string s) = s))
    [ "as_ba64.graph"; "as_ba48_dense.graph"; "as_powerlaw72.graph" ]

let test_corpus () =
  let st = rng () in
  let corpus = Generators.corpus st ~size:16 in
  check_true "non-empty" (List.length corpus >= 14);
  List.iter
    (fun (name, g) ->
      check_true (name ^ " connected") (Bfs.is_connected g);
      check_true (name ^ " non-trivial") (Graph.order g >= 4))
    corpus

let suite =
  [
    case "path/cycle/complete" test_path_cycle_complete;
    case "complete has sorted ports" test_complete_sorted_ports;
    case "bipartite/star/wheel" test_bipartite_star_wheel;
    case "hypercube" test_hypercube;
    case "K2^4 is the 4-cube" test_hypercube_is_k2_power;
    case "grid and torus" test_grid_torus;
    case "C4 x C5 is the 4x5 torus" test_torus_is_cycle_product;
    case "petersen" test_petersen;
    case "generalized petersen" test_generalized_petersen;
    case "random trees" test_random_tree;
    case "caterpillar" test_caterpillar;
    case "k-tree is chordal" test_k_tree_chordal;
    case "maximal outerplanar" test_outerplanar;
    case "unit circular arc" test_unit_circular_arc;
    case "random connected" test_random_connected;
    case "random regular" test_random_regular;
    case "de bruijn" test_de_bruijn;
    case "scale-free generators are seed-deterministic"
      test_scale_free_deterministic;
    case "barabasi-albert degree profile" test_barabasi_albert_degrees;
    case "chung-lu connectivity" test_chung_lu_connected;
    case "AS fixtures round-trip" test_fixture_round_trip;
    case "corpus" test_corpus;
    prop "random trees have n-1 edges" arbitrary_tree (fun t ->
        Graph.size t = Graph.order t - 1 && Bfs.is_connected t);
  ]
