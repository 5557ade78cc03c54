open Umrs_graph
open Umrs_routing
open Helpers

(* ---------- sparse covers ---------- *)

let test_cover_covers () =
  List.iter
    (fun (name, g, r) ->
      let c = Cover.build g ~r in
      check_true (name ^ " covers balls") (Cover.covers_balls g c))
    [
      ("cycle", Generators.cycle 16, 2);
      ("grid", Generators.grid 5 5, 1);
      ("petersen", Generators.petersen (), 1);
      ("tree", Generators.random_tree (rng ()) 20, 3);
    ]

let test_cover_radius_bound () =
  let g = Generators.grid 6 6 in
  let r = 2 in
  let c = Cover.build g ~r in
  let n = Graph.order g in
  let bound = r * (1 + int_of_float (Float.log (float_of_int n) /. Float.log 2.0) + 1) in
  check_true "radius within r(log n + 2)" (Cover.max_cluster_radius c <= bound)

let test_cover_radius_zero () =
  let g = Generators.path 6 in
  let c = Cover.build g ~r:0 in
  check_true "singleton-ish clusters"
    (Array.for_all (fun (cl : Cover.cluster) -> cl.Cover.radius = 0) c.Cover.clusters);
  check_true "still covers" (Cover.covers_balls g c)

let test_cover_membership_reasonable () =
  let g = Generators.torus 5 5 in
  let c = Cover.build g ~r:1 in
  check_true "membership sane" (Cover.max_membership g c <= 25)

(* ---------- tree cover routing ---------- *)

let test_treecover_petersen () =
  let g = Generators.petersen () in
  let b = Tree_cover_scheme.build g in
  check_true "delivers" (Routing_function.delivers_all b.Scheme.rf);
  let s = Stretch_dist.exact b.Scheme.rf in
  check_true "within guarantee"
    (s.Stretch_dist.ds_max <= Tree_cover_scheme.stretch_guarantee g)

let test_treecover_families () =
  List.iter
    (fun (name, g) ->
      let b = Tree_cover_scheme.build g in
      check_true (name ^ " delivers") (Routing_function.delivers_all b.Scheme.rf);
      let s = Stretch_dist.exact b.Scheme.rf in
      check_true
        (name ^ " within O(log n) guarantee")
        (s.Stretch_dist.ds_max <= Tree_cover_scheme.stretch_guarantee g))
    [
      ("cycle 18", Generators.cycle 18);
      ("grid 5x5", Generators.grid 5 5);
      ("hypercube 16", Generators.hypercube 4);
      ("random tree", Generators.random_tree (rng ()) 20);
    ]

let test_treecover_memory_vs_tables () =
  (* polylog-ish per-router state: on a long cycle the tree-cover tables
     stay far below the n-entry tables in entry count; in bits the
     verdict depends on n - just check both are measured and positive *)
  let g = Generators.cycle 32 in
  let tc = Tree_cover_scheme.build g in
  let tb = Table_scheme.build g in
  check_true "positive" (Scheme.mem_local tc > 0 && Scheme.mem_local tb > 0)

(* ---------- pinned encodings ---------- *)

(* Test_tz.golden_digest (the description, every router's bits and 200
   seeded routes) of three seeded graphs, recorded before the cluster
   trees came from the BFS kernel. *)
let test_treecover_pinned () =
  List.iter
    (fun (name, g, expected) ->
      Alcotest.(check string) name expected
        (Test_tz.golden_digest [ g ] Tree_cover_scheme.build))
    [
      ( "ba 120",
        Generators.barabasi_albert (Random.State.make [| 120; 2 |]) ~n:120 ~m:2,
        "b69779cf612550bf81b7dada890d3d38" );
      ( "random 90",
        Generators.random_connected (Random.State.make [| 90; 0x7C |]) ~n:90
          ~m:150,
        "c9b30e5a7f537594acb47ac1679a784e" );
      ("grid 9x7", Generators.grid 9 7, "8e0b4f6d5ba88402b9b2753f35bf28e8");
    ]

(* ---------- Cover.build against the build it replaced ---------- *)

(* Cover.build before it searched on one workspace: a full BFS and an
   n-array per cluster, every ball size counted over all n vertices. *)
let cover_oracle g ~r =
  let n = Graph.order g in
  let home = Array.make n (-1) in
  let clusters = ref [] in
  let count = ref 0 in
  let ball_members dist limit =
    let acc = ref [] in
    Array.iteri (fun v d -> if d <= limit then acc := v :: !acc) dist;
    Array.of_list (List.rev !acc)
  in
  for v = 0 to n - 1 do
    if home.(v) = -1 then begin
      let dist = Bfs.distances g v in
      let size limit =
        Array.fold_left (fun acc d -> if d <= limit then acc + 1 else acc) 0 dist
      in
      let rho = ref 0 in
      while size (!rho + r) > 2 * size !rho do
        rho := !rho + r
      done;
      let c =
        { Cover.center = v; radius = !rho + r; members = ball_members dist (!rho + r) }
      in
      let idx = !count in
      incr count;
      clusters := c :: !clusters;
      Array.iteri (fun u d -> if d <= !rho && home.(u) = -1 then home.(u) <- idx) dist
    end
  done;
  { Cover.r; clusters = Array.of_list (List.rev !clusters); home }

(* Random connected graphs, paths, cycles and grids. *)
let cover_graph =
  let connected = Gen.connected_graph ~max_n:30 () in
  Gen.make ~print:Gen.print_graph (fun st ->
      match Random.State.int st 4 with
      | 0 -> Generators.path (1 + Random.State.int st 40)
      | 1 -> Generators.cycle (3 + Random.State.int st 40)
      | 2 -> Generators.grid (1 + Random.State.int st 7) (1 + Random.State.int st 7)
      | _ -> connected.Gen.gen st)

let suite =
  [
    case "covers cover r-balls" test_cover_covers;
    case "cluster radius bound" test_cover_radius_bound;
    case "radius zero" test_cover_radius_zero;
    case "membership reasonable" test_cover_membership_reasonable;
    case "tree-cover on petersen" test_treecover_petersen;
    case "tree-cover across families" test_treecover_families;
    case "tree-cover memory measured" test_treecover_memory_vs_tables;
    prop ~count:25 "covers cover on random graphs" arbitrary_connected_graph
      (fun g ->
        let st = rng () in
        let r = Random.State.int st 3 in
        Cover.covers_balls g (Cover.build g ~r));
    prop ~count:20 "tree-cover delivers within guarantee on random graphs"
      arbitrary_connected_graph (fun g ->
        let b = Tree_cover_scheme.build g in
        Routing_function.delivers_all b.Scheme.rf
        &&
        let s = Stretch_dist.exact b.Scheme.rf in
        s.Stretch_dist.ds_max <= Tree_cover_scheme.stretch_guarantee g);
    case "tree-cover bits pinned" test_treecover_pinned;
    Gen.prop ~count:100 "cover = the n-array build, r = 0..4" cover_graph (fun g ->
        List.for_all (fun r -> Cover.build g ~r = cover_oracle g ~r) [ 0; 1; 2; 3; 4 ]);
  ]
