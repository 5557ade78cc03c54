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

(* ---------- pinned encodings ---------- *)

(* Test_tz.golden_digest (the description, every router's bits and 200
   seeded routes) on the cover+treecover pin graphs at the default
   radius, 0 and 2, recorded before the balls came from Ball_table. *)
let test_pinned () =
  let graphs =
    [
      ("ba 120", Generators.barabasi_albert (Random.State.make [| 120; 2 |]) ~n:120 ~m:2);
      ( "random 90",
        Generators.random_connected (Random.State.make [| 90; 0x7C |]) ~n:90 ~m:150 );
      ("grid 9x7", Generators.grid 9 7);
    ]
  in
  List.iter
    (fun (name, radius, expected) ->
      let g = List.assoc name graphs in
      let label = name ^ match radius with Some r -> Printf.sprintf " radius %d" r | None -> "" in
      Alcotest.(check string)
        label expected
        (Test_tz.golden_digest [ g ] (Hierarchical_scheme.build ?radius)))
    [
      ("ba 120", None, "3d03a118a35afd05ce94095aaaed2358");
      ("ba 120", Some 0, "8c0cd8437d25c45710e543667b67fc52");
      ("ba 120", Some 2, "e794ae5a10d545ceffd360baa70d1462");
      ("random 90", None, "54bd44c4f28d287f0010e176a98817d5");
      ("random 90", Some 0, "eb1a4ccbefa588c20683a664315e8804");
      ("random 90", Some 2, "4f76cd3235d1503aceb0a747c94e91c7");
      ("grid 9x7", None, "7a7bb94d4c12ba074a68dfb5faedf933");
      ("grid 9x7", Some 0, "6411f36e6cd04425c0e8000754f7822b");
      ("grid 9x7", Some 2, "5761f5011a36d846a419822308f15d87");
    ]

(* ---------- ports against all-pairs distances ---------- *)

(* The smallest port at [x] whose neighbour is one step closer to [t]. *)
let closer_port g (dist : int array array) x t =
  let k = ref 1 in
  while dist.(Graph.neighbor g x ~port:!k).(t) <> dist.(x).(t) - 1 do
    incr k
  done;
  !k

let vertices g = List.init (Graph.order g) Fun.id

(* A random connected graph with a value 0..[max] drawn per vertex. *)
let graph_with_draws max =
  let graphs = Gen.connected_graph ~max_n:30 () in
  let print (g, a) =
    graphs.Gen.print g ^ "\ndraws: "
    ^ String.concat " " (Array.to_list (Array.map string_of_int a))
  in
  Gen.make ~print (fun st ->
      let g = graphs.Gen.gen st in
      (g, Array.init (Graph.order g) (fun _ -> Random.State.int st (max + 1))))

(* At every router x and destination v: the smallest port one step
   closer to v when d(x,v) <= 2r, else the smallest port one step closer
   to the center of v's cluster. The radius is vertex 0's draw. *)
let ports_hold (g, draws) =
  let radius = draws.(0) in
  let rf = (Hierarchical_scheme.build ~radius g).Scheme.rf in
  let cluster_of, centers = Hierarchical_scheme.partition ~radius g in
  let dist = Bfs.all_pairs g in
  List.for_all
    (fun x ->
      List.for_all
        (fun v ->
          x = v
          ||
          let t = if dist.(x).(v) <= 2 * radius then v else centers.(cluster_of.(v)) in
          rf.Routing_function.port x (rf.Routing_function.init x v)
          = Some (closer_port g dist x t))
        (vertices g))
    (vertices g)

(* Ball_table with a radius per destination: x stores exactly the v
   with 0 < d(x,v) < radius.(v), ascending, each with the smallest port
   one step closer; built on a workspace a search has already used. *)
let ball_table_holds (g, radius) =
  let ws = Bfs.workspace () in
  Bfs.search ws g (Graph.order g - 1);
  let t = Ball_table.build ws g ~radius in
  let dist = Bfs.all_pairs g in
  List.for_all
    (fun x ->
      let stored = List.filter (fun v -> v <> x && dist.(x).(v) < radius.(v)) (vertices g) in
      Array.to_list (Ball_table.members t x) = stored
      && List.for_all
           (fun v ->
             Ball_table.find t x v
             = if List.mem v stored then Some (closer_port g dist x v) else None)
           (vertices g))
    (vertices g)

(* ---------- the default radius ---------- *)

(* The rule default_radius kept until its search stopped at vertex 0's
   eccentricity: the same search, stopped at the diameter. At r =
   ecc(0) vertex 0, partition's first center, claims every vertex, so
   both stop there at the latest with the same radius. *)
let radius_stopped_at_diameter g =
  let n = Graph.order g in
  let target = int_of_float (Float.ceil (sqrt (float_of_int n))) in
  let diam = Bfs.diameter g in
  let rec search r =
    if r >= diam then diam
    else begin
      let _, centers = Hierarchical_scheme.partition ~radius:r g in
      if Array.length centers <= target then r else search (r + 1)
    end
  in
  search 1

let test_default_radius_differential () =
  let st = rng () in
  let graphs =
    List.concat
      [
        List.init 15 (fun i ->
            let n = 2 + Random.State.int st 60 in
            let m = n - 1 + Random.State.int st n in
            (Printf.sprintf "random#%d" i, Generators.random_connected st ~n ~m));
        List.map (fun n -> (Printf.sprintf "path %d" n, Generators.path n)) [ 1; 2; 3; 10; 37; 100 ];
        List.map (fun n -> (Printf.sprintf "star %d" n, Generators.star n)) [ 2; 3; 10; 50 ];
        List.map
          (fun (w, h) -> (Printf.sprintf "grid %dx%d" w h, Generators.grid w h))
          [ (1, 5); (2, 2); (5, 5); (9, 7); (12, 3); (20, 20) ];
        List.init 10 (fun i ->
            let n = 10 + Random.State.int st 300 and m = 1 + Random.State.int st 3 in
            (Printf.sprintf "ba#%d n=%d m=%d" i n m, Generators.barabasi_albert st ~n ~m));
      ]
  in
  List.iter
    (fun (name, g) ->
      check_int name (radius_stopped_at_diameter g) (Hierarchical_scheme.default_radius g))
    graphs

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
    case "bits and routes pinned" test_pinned;
    Gen.prop ~count:100 "ports: ball entry, else toward the center" (graph_with_draws 3)
      ports_hold;
    Gen.prop ~count:100 "ball table = all-pairs oracle" (graph_with_draws 4) ball_table_holds;
    case "default radius = the search stopped at the diameter"
      test_default_radius_differential;
  ]
