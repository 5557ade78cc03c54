open Umrs_graph
open Umrs_routing
open Umrs_core
open Helpers

(* ---------- RLE tables ---------- *)

let test_rle_roundtrip_petersen () =
  let g = Generators.petersen () in
  let m = Table_scheme.next_hop_matrix g in
  for v = 0 to 9 do
    let buf = Compressed_tables.encode_table ~degree:3 m.(v) ~skip:v in
    let back =
      Compressed_tables.decode_table buf ~order:10 ~degree:3 ~self:v
    in
    for dst = 0 to 9 do
      if dst <> v then check_int "entry" m.(v).(dst) back.(dst)
    done
  done

let test_rle_routes_correctly () =
  let g = Generators.torus 4 4 in
  let b = Compressed_tables.build g in
  check_true "stretch 1"
    (Routing_function.stretch_at_most b.Scheme.rf ~num:1 ~den:1)

let test_rle_compresses_structure () =
  (* ring tables are two giant runs; grid tables are long dimension
     runs: both compress. The hypercube's natural vertex order
     interleaves dimensions, and a star hub alternates ports on every
     entry - RLE gains nothing there (plain leaf tables are already
     zero-width). Structure in the table, not in the graph, is what
     compresses. *)
  check_true "ring compresses"
    (Compressed_tables.compression_ratio (Generators.cycle 64) < 0.6);
  check_true "grid compresses"
    (Compressed_tables.compression_ratio (Generators.grid 6 6) < 0.8);
  check_true "hypercube does not (natural order)"
    (Compressed_tables.compression_ratio (Generators.hypercube 5) >= 1.0);
  check_true "star does not (hub alternates)"
    (Compressed_tables.compression_ratio (Generators.star 64) >= 1.0)

let test_rle_fails_on_constraint_graphs () =
  (* Theorem 1, felt: at the constrained vertices of a graph of
     constraints the port sequence is a (near-)incompressible matrix
     row, so RLE gains little-to-nothing there *)
  let m =
    Matrix.create
      [| [| 1; 2; 3; 1; 3; 2; 2; 1; 3 |]; [| 1; 1; 2; 3; 2; 1; 3; 3; 2 |] |]
  in
  let t = Cgraph.of_matrix m in
  let g = t.Cgraph.graph in
  let plain = Table_scheme.build g in
  let rle = Compressed_tables.build g in
  (* compare at a constrained vertex *)
  let a = t.Cgraph.constrained.(0) in
  check_true "no local win at a constrained router"
    (Scheme.mem_at rle a >= Scheme.mem_at plain a)

let test_rle_vs_plain_on_corpus () =
  let st = rng () in
  List.iter
    (fun (name, g) ->
      let r = Compressed_tables.compression_ratio g in
      check_true (name ^ " ratio sane") (r > 0.0 && r < 8.0))
    (Generators.corpus st ~size:12)

(* ---------- parallel BFS ---------- *)

let test_parallel_matches_sequential () =
  let st = rng () in
  let g = Generators.random_connected st ~n:40 ~m:90 in
  check_true "same distances" (Parallel.all_pairs ~domains:4 g = Bfs.all_pairs g);
  check_true "one domain" (Parallel.all_pairs ~domains:1 g = Bfs.all_pairs g)

let test_parallel_disconnected () =
  (* two components, more domains than sources: every cross pair is at
     Bfs.infinity, as in the sequential matrix *)
  let g = Graph.of_edges ~n:5 [ (0, 1); (1, 2); (3, 4) ] in
  let d = Parallel.all_pairs ~domains:8 g in
  check_true "same distances" (d = Bfs.all_pairs g);
  check_int "cross pair unreachable" Bfs.infinity d.(0).(4);
  check_int "within a component" 2 d.(0).(2)

(* ---------- shared distances ---------- *)

let test_compare_on_shares_distances () =
  (* compare_on passes one distance matrix to every scheme; evaluating
     each scheme on its own, with its own matrix, must agree field for
     field *)
  let st = rng () in
  let g = Generators.random_connected st ~n:20 ~m:40 in
  let schemes = Registry.universal () in
  let shared = Registry.compare_on ~graph_name:"rnd" g schemes in
  let alone = List.map (fun s -> Scheme.evaluate s ~graph_name:"rnd" g) schemes in
  check_true "same evaluations" (shared = alone)

let test_exact_stretch_edge_cases () =
  let one = (Table_scheme.build (Generators.path 1)).Scheme.rf in
  let s = Stretch_dist.exact one in
  check_int "no pair on one vertex" 0 s.Stretch_dist.ds_pairs;
  check_true "every statistic 1"
    (List.for_all (( = ) 1.0)
       Stretch_dist.[ s.ds_mean; s.ds_p50; s.ds_p95; s.ds_p99; s.ds_max ]);
  (* a disconnected pair is refused before it is routed *)
  let g = Graph.of_edges ~n:4 [ (0, 1); (2, 3) ] in
  let rf = Routing_function.of_next_hop g (fun _ _ -> 1) in
  check_true "disconnected pair refused"
    (match Stretch_dist.exact rf with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_map_range () =
  check_true "squares" (Parallel.map_range ~domains:3 10 (fun i -> i * i)
                        = Array.init 10 (fun i -> i * i));
  check_true "empty" (Parallel.map_range ~domains:2 0 (fun i -> i) = [||]);
  check_true "more domains than work"
    (Parallel.map_range ~domains:8 3 (fun i -> i) = [| 0; 1; 2 |])

(* ---------- dead bridges ---------- *)

let test_bridge_kill_strands_traffic () =
  (* killing a bridge strands all cross-traffic: every edge of a path
     is one, (0, 1) among them *)
  let g = Generators.path 4 in
  let rf = (Table_scheme.build g).Scheme.rf in
  let s =
    Simulator.run_with_dead_links ~dead:[ (0, 1) ] rf ~pairs:[ (0, 3); (3, 0) ]
  in
  check_int "all stranded" 0 s.Simulator.delivered

(* ---------- stretch-1 reconstruction & LIRS ---------- *)

let test_reconstruct_at_stretch_one () =
  let o =
    Reconstruct.run_experiment ~bound:Verify.shortest_paths_only ~p:2 ~q:2
      ~d:3 ~scheme:Table_scheme.build ()
  in
  check_true "forced at s=1 too" o.Reconstruct.all_forced;
  check_true "recovered" o.Reconstruct.all_recovered

let test_linear_compactness () =
  let st = rng () in
  let t = Generators.random_tree st 20 in
  let c = Interval_routing.compile t in
  check_true "linear >= cyclic"
    (Interval_routing.linear_compactness c >= Interval_routing.compactness c);
  (* on a path with identity labels both are 1 *)
  let p = Interval_routing.compile ~labelling:Interval_routing.Identity (Generators.path 9) in
  check_int "path linear 1" 1 (Interval_routing.linear_compactness p);
  (* DFS tree labelling: the parent arc wraps, so LIRS pays 2 *)
  let star = Interval_routing.compile (Generators.star 8) in
  check_true "wrap costs a linear interval"
    (Interval_routing.linear_compactness star
    >= Interval_routing.compactness star)

let suite =
  [
    case "rle roundtrip" test_rle_roundtrip_petersen;
    case "rle routes correctly" test_rle_routes_correctly;
    case "rle compresses structured tables" test_rle_compresses_structure;
    case "rle gains nothing on constraint rows" test_rle_fails_on_constraint_graphs;
    case "rle sane on corpus" test_rle_vs_plain_on_corpus;
    case "parallel = sequential BFS" test_parallel_matches_sequential;
    case "parallel all_pairs on a disconnected graph" test_parallel_disconnected;
    case "map_range" test_map_range;
    case "compare_on shares one distance matrix" test_compare_on_shares_distances;
    case "exact stretch: one vertex, disconnected pair" test_exact_stretch_edge_cases;
    case "dead bridge strands traffic" test_bridge_kill_strands_traffic;
    case "reconstruction at stretch 1" test_reconstruct_at_stretch_one;
    case "linear vs cyclic compactness" test_linear_compactness;
    prop ~count:30 "rle decode inverts encode on random graphs"
      arbitrary_connected_graph (fun g ->
        let n = Graph.order g in
        let m = Table_scheme.next_hop_matrix g in
        let ok = ref true in
        for v = 0 to n - 1 do
          let deg = Graph.degree g v in
          let buf = Compressed_tables.encode_table ~degree:deg m.(v) ~skip:v in
          let back = Compressed_tables.decode_table buf ~order:n ~degree:deg ~self:v in
          for dst = 0 to n - 1 do
            if dst <> v && back.(dst) <> m.(v).(dst) then ok := false
          done
        done;
        !ok);
    prop ~count:20 "parallel map matches init" (QCheck.small_nat)
      (fun n ->
        let n = n mod 50 in
        Parallel.map_range ~domains:3 n (fun i -> (i * 7) mod 13)
        = Array.init n (fun i -> (i * 7) mod 13));
  ]
