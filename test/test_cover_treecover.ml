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

(* ---------- packed cluster trees against the Hashtbl build ---------- *)

(* A cluster tree as Tree_cover_scheme built it before its trees were
   Landmark_core.trees: a Hashtbl per cluster of records keyed by
   member, numbered by its own DFS over visit positions. *)
type oracle_node = {
  parent_port : Graph.port; (* 0 at the root *)
  dfs : int;
  children : (Graph.port * int * int) array; (* port, dfs lo, dfs hi *)
}

(* The BFS tree of cluster [c], rooted at its center. A cluster is the
   ball of its radius around its center, and a shortest path from the
   center stays inside that ball, so the kernel bounded at [radius + 1]
   reaches exactly the members: first-discoverer parents in port order,
   each vertex's children discovered, hence listed, in port order, with
   the port the search found them through, and DFS numbers in that
   order. *)
let oracle_tree ws g (c : Cover.cluster) =
  Bfs.search ~parents:true ~radius:(c.Cover.radius + 1) ws g c.Cover.center;
  let m = Bfs.reached ws in
  let order = Bfs.visit_order ws and parent = Bfs.parent_array ws
  and pport = Bfs.parent_port_array ws in
  (* positions in the visit order: a vertex's children are queued while
     it is expanded, so parents come in nondecreasing position *)
  let up = Array.make m 0 in
  let j = ref 0 in
  for k = 1 to m - 1 do
    while order.(!j) <> parent.(order.(k)) do incr j done;
    up.(k) <- !j
  done;
  let size = Array.make m 1 in
  for k = m - 1 downto 1 do
    size.(up.(k)) <- size.(up.(k)) + size.(k)
  done;
  (* preorder: each child takes the next free number of its parent *)
  let dfs = Array.make m 0 and next = Array.make m 1 in
  for k = 1 to m - 1 do
    dfs.(k) <- next.(up.(k));
    next.(up.(k)) <- dfs.(k) + size.(k);
    next.(k) <- dfs.(k) + 1
  done;
  let kids = Array.make m [] in
  for k = m - 1 downto 1 do
    kids.(up.(k)) <-
      (pport.(order.(k)), dfs.(k), dfs.(k) + size.(k) - 1) :: kids.(up.(k))
  done;
  let nodes = Hashtbl.create m in
  for k = 0 to m - 1 do
    let x = order.(k) in
    let parent_port =
      if k = 0 then 0 else Option.get (Graph.port_to g ~src:x ~dst:parent.(x))
    in
    Hashtbl.replace nodes x
      { parent_port; dfs = dfs.(k); children = Array.of_list kids.(k) }
  done;
  nodes

(* Every member of every cluster at every scale: its entry (its rank
   in the sorted members) in the packed tree holds the oracle's DFS
   number, up port and (port, lo, hi) children. *)
let packed_trees_match g =
  let ws = Bfs.workspace () in
  let cluster_matches (c : Cover.cluster) t =
    let nodes = oracle_tree ws g c in
    let entry_matches e v =
      match Hashtbl.find_opt nodes v with
      | None -> false
      | Some o ->
        Landmark_core.dfs_number t e = o.dfs
        && Landmark_core.up_port t e = o.parent_port
        && Landmark_core.children t e = o.children
    in
    Hashtbl.length nodes = Array.length c.Cover.members
    && Array.for_all Fun.id (Array.mapi entry_matches c.Cover.members)
  in
  Array.for_all
    (fun s ->
      Array.for_all2 cluster_matches s.Tree_cover_scheme.cover.Cover.clusters
        s.Tree_cover_scheme.trees)
    (Tree_cover_scheme.prepare g)

(* Random connected graphs, BA graphs, grids, trees and cycles. *)
let tree_cover_graph =
  let connected = Gen.connected_graph ~max_n:30 () in
  Gen.make ~print:Gen.print_graph (fun st ->
      match Random.State.int st 5 with
      | 0 -> connected.Gen.gen st
      | 1 ->
        let m = 1 + Random.State.int st 3 in
        Generators.barabasi_albert st ~n:(m + 1 + Random.State.int st 60) ~m
      | 2 -> Generators.grid (1 + Random.State.int st 8) (1 + Random.State.int st 8)
      | 3 -> Generators.random_tree st (1 + Random.State.int st 40)
      | _ -> Generators.cycle (3 + Random.State.int st 40))

(* 2^21 vertices do not fit a tree's 21-bit fields. The graph has no
   edge, so a search would refuse it as disconnected: the order is
   refused first. *)
let test_treecover_refuses_order () =
  Test_tz.refuses "2^21 vertices" ~says:"2097152 vertices" (fun () ->
      Tree_cover_scheme.build (Graph.empty (1 lsl 21)))

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
    Gen.prop ~count:100 "packed cluster trees = the Hashtbl build" tree_cover_graph
      packed_trees_match;
    case "tree-cover refuses 2^21 vertices" test_treecover_refuses_order;
  ]
