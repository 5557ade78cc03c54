open Umrs_graph
open Umrs_routing
open Umrs_spanner
open Helpers

(* ---------- landmark (stretch-3) scheme ---------- *)

let test_landmark_delivers_petersen () =
  let b = Landmark_scheme.build (Generators.petersen ()) in
  check_true "delivers" (Routing_function.delivers_all b.Scheme.rf);
  check_true "stretch <= 3"
    (Routing_function.stretch_at_most b.Scheme.rf ~num:3 ~den:1)

let test_landmark_extreme_counts () =
  let g = Generators.cycle 12 in
  (* one landmark: everything routes via trees; still <= 3? With l=1 the
     cluster rule guarantees stretch 3 only when d(v,L) <= d(u,v);
     single landmark can violate that... the scheme bound holds because
     cluster(u) covers w with d(u,w) < d(w,L). Check empirically. *)
  let b1 = Landmark_scheme.build ~landmarks:1 g in
  check_true "l=1 delivers" (Routing_function.delivers_all b1.Scheme.rf);
  check_true "l=1 stretch <= 3"
    (Routing_function.stretch_at_most b1.Scheme.rf ~num:3 ~den:1);
  let ball = Landmark_scheme.build ~landmarks:12 g in
  check_true "l=n delivers" (Routing_function.delivers_all ball.Scheme.rf);
  check_true "l=n stretch 1"
    (Routing_function.stretch_at_most ball.Scheme.rf ~num:1 ~den:1)

let test_landmark_count_default () =
  check_int "n=1" 1 (Landmark_scheme.default_landmark_count 1);
  let c100 = Landmark_scheme.default_landmark_count 100 in
  check_true "sane range" (c100 >= 10 && c100 <= 60)

(* Per-vertex cluster-table sizes, for the memory-balance checks. *)
let cluster_sizes ?landmarks ?strategy g =
  let d = Landmark_scheme.prepare ?landmarks ?strategy g in
  Array.init (Graph.order g) (fun v -> Array.length (Landmark_core.cluster_members d v))

let test_landmark_clusters_shrink_with_landmarks () =
  (* With every vertex a landmark the cluster radii are zero; with few
     landmarks clusters carry most of the graph. *)
  let g = Generators.cycle 24 in
  let all = cluster_sizes ~landmarks:24 g in
  check_true "all-landmark clusters empty" (Array.for_all (fun s -> s = 0) all);
  let few = cluster_sizes ~landmarks:1 g in
  check_true "single-landmark clusters large"
    (Array.exists (fun s -> s > 4) few);
  let total xs = Array.fold_left ( + ) 0 xs in
  check_true "monotone burden" (total all < total few)

let test_cluster_sizes () =
  let g = Generators.cycle 16 in
  let sizes = cluster_sizes g in
  check_int "per-vertex array" 16 (Array.length sizes);
  Array.iter (fun s -> check_true "bounded" (s >= 0 && s < 16)) sizes

(* ---------- spanners ---------- *)

let test_spanner_k1_identity () =
  let g = Generators.petersen () in
  let h = Spanner.greedy g ~k:1 in
  check_int "1-spanner keeps everything" (Graph.size g) (Graph.size h)

let test_spanner_sparsifies_complete () =
  let g = Generators.complete 16 in
  let h = Spanner.greedy g ~k:2 in
  check_true "3-spanner property" (Spanner.is_spanner g ~sub:h ~t:3);
  check_true "sparser" (Graph.size h < Graph.size g);
  (* girth > 4 => no triangles and no C4 *)
  match Props.girth h with
  | None -> ()
  | Some gi -> check_true "girth > 2k" (gi > 4)

let test_spanner_of_tree_is_tree () =
  let st = rng () in
  let t = Generators.random_tree st 20 in
  let h = Spanner.greedy t ~k:3 in
  check_int "tree unchanged" (Graph.size t) (Graph.size h)

let test_spanner_metrics () =
  let g = Generators.complete 10 in
  let h = Spanner.greedy g ~k:2 in
  check_true "max_stretch <= 3" (Spanner.max_stretch g ~sub:h <= 3.0);
  check_true "edge ratio < 1" (Spanner.edge_ratio g ~sub:h < 1.0)

let test_spanner_scheme () =
  (* memory shrinks globally: entry widths follow the spanner's smaller
     degrees (the Peleg-Upfal space/efficiency tradeoff) *)
  let st = Random.State.make [| 7 |] in
  let g = Generators.random_connected st ~n:32 ~m:240 in
  let b = Spanner_scheme.build ~k:2 g in
  check_true "delivers" (Routing_function.delivers_all b.Scheme.rf);
  check_true "stretch <= 3"
    (Routing_function.stretch_at_most b.Scheme.rf ~num:3 ~den:1);
  let tb = Table_scheme.build g in
  check_true "global memory halves on a dense graph"
    (2 * Scheme.mem_global b < Scheme.mem_global tb)


let test_landmark_strategies () =
  let g = Generators.grid 5 5 in
  List.iter
    (fun (name, strategy) ->
      let b = Landmark_scheme.build ~strategy g in
      check_true (name ^ " delivers") (Routing_function.delivers_all b.Scheme.rf);
      check_true (name ^ " stretch <= 3")
        (Routing_function.stretch_at_most b.Scheme.rf ~num:3 ~den:1))
    [
      ("random", Landmark_scheme.Random_landmarks);
      ("high-degree", Landmark_scheme.High_degree);
      ("k-center", Landmark_scheme.K_center);
    ]

let test_kcenter_spreads () =
  (* on a path, k-center picks far-apart landmarks, shrinking the
     largest cluster table relative to clumped high-degree picks *)
  let g = Generators.path 40 in
  let worst strategy =
    Array.fold_left max 0 (cluster_sizes ~landmarks:4 ~strategy g)
  in
  check_true "k-center no worse than high-degree on a path"
    (worst Landmark_scheme.K_center <= worst Landmark_scheme.High_degree)

let test_build_deterministic () =
  (* same seed, same graph: identical encodings (no hidden global RNG) *)
  let g = Generators.torus 4 4 in
  List.iter
    (fun scheme ->
      let b1 = scheme.Scheme.build g and b2 = scheme.Scheme.build g in
      for v = 0 to 15 do
        check_true
          (scheme.Scheme.name ^ " deterministic")
          (Umrs_bitcode.Bitbuf.to_bool_array (b1.Scheme.local_encoding v)
          = Umrs_bitcode.Bitbuf.to_bool_array (b2.Scheme.local_encoding v))
      done)
    (Registry.universal ())

let suite =
  [
    case "landmark delivers on petersen" test_landmark_delivers_petersen;
    case "landmark extreme counts" test_landmark_extreme_counts;
    case "default landmark count" test_landmark_count_default;
    case "clusters shrink with landmark count"
      test_landmark_clusters_shrink_with_landmarks;
    case "cluster sizes" test_cluster_sizes;
    case "landmark strategies" test_landmark_strategies;
    case "k-center spreads landmarks" test_kcenter_spreads;
    case "all schemes build deterministically" test_build_deterministic;
    case "1-spanner is the graph" test_spanner_k1_identity;
    case "3-spanner of K16" test_spanner_sparsifies_complete;
    case "spanner of a tree" test_spanner_of_tree_is_tree;
    case "spanner metrics" test_spanner_metrics;
    case "spanner routing scheme" test_spanner_scheme;
    prop ~count:30 "landmark: delivers within stretch 3 on random graphs"
      arbitrary_connected_graph (fun g ->
        Routing_function.stretch_at_most (Landmark_scheme.build g).Scheme.rf
          ~num:3 ~den:1);
    prop ~count:30 "greedy (2k-1)-spanner property, k=2"
      arbitrary_connected_graph (fun g ->
        Spanner.is_spanner g ~sub:(Spanner.greedy g ~k:2) ~t:3);
    prop ~count:30 "greedy (2k-1)-spanner property, k=3"
      arbitrary_connected_graph (fun g ->
        Spanner.is_spanner g ~sub:(Spanner.greedy g ~k:3) ~t:5);
    prop ~count:30 "spanner scheme stretch bound, k=2"
      arbitrary_connected_graph (fun g ->
        Routing_function.stretch_at_most
          (Spanner_scheme.build ~k:2 g).Scheme.rf ~num:3 ~den:1);
    prop ~count:30 "spanner is connected and spanning"
      arbitrary_connected_graph (fun g ->
        let h = Spanner.greedy g ~k:4 in
        Graph.order h = Graph.order g && Bfs.is_connected h);
  ]
