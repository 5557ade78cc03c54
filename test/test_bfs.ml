open Umrs_graph
open Helpers

let test_path_distances () =
  let g = Generators.path 5 in
  let d = Bfs.distances g 0 in
  check_true "line distances" (d = [| 0; 1; 2; 3; 4 |]);
  check_int "dist endpoint" 4 (Bfs.dist g 0 4)

let test_unreachable () =
  let g = Graph.empty 3 in
  let d = Bfs.distances g 0 in
  check_int "self" 0 d.(0);
  check_true "others infinite" (d.(1) = Bfs.infinity && d.(2) = Bfs.infinity)

let test_cycle_metric () =
  let g = Generators.cycle 6 in
  check_int "antipodal" 3 (Bfs.dist g 0 3);
  check_int "diameter" 3 (Bfs.diameter g);
  check_int "radius" 3 (Bfs.radius g)

let test_star_center () =
  let g = Generators.star 7 in
  check_int "center is hub" 0 (Bfs.center g);
  check_int "radius" 1 (Bfs.radius g);
  check_int "diameter" 2 (Bfs.diameter g)

let test_shortest_path () =
  let g = Generators.path 4 in
  (match Bfs.shortest_path g 0 3 with
  | Some p -> check_true "path" (p = [ 0; 1; 2; 3 ])
  | None -> Alcotest.fail "expected a path");
  check_true "no path" (Bfs.shortest_path (Graph.empty 2) 0 1 = None)

let test_hypercube_distances_are_hamming () =
  let g = Generators.hypercube 4 in
  let d = Bfs.all_pairs g in
  let popcount x =
    let rec go acc x = if x = 0 then acc else go (acc + (x land 1)) (x lsr 1) in
    go 0 x
  in
  for u = 0 to 15 do
    for v = 0 to 15 do
      check_int "hamming" (popcount (u lxor v)) d.(u).(v)
    done
  done

let test_bfs_tree () =
  let g = Generators.cycle 5 in
  let t = Bfs.bfs_tree g 0 in
  check_int "spanning tree edges" 4 (Graph.size t);
  check_true "tree is connected" (Bfs.is_connected t);
  (* distances in the tree from the root equal graph distances *)
  check_true "root distances preserved" (Bfs.distances t 0 = Bfs.distances g 0)

let test_count_shortest_paths () =
  check_int "cycle even antipodal" 2
    (Bfs.count_shortest_paths (Generators.cycle 6) 0 3);
  check_int "path unique" 1 (Bfs.count_shortest_paths (Generators.path 5) 0 4);
  (* hypercube: k! shortest paths at distance k *)
  check_int "cube diagonal" 6
    (Bfs.count_shortest_paths (Generators.hypercube 3) 0 7);
  check_int "disconnected" 0 (Bfs.count_shortest_paths (Graph.empty 2) 0 1)

let symmetric_matrix d =
  let n = Array.length d in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if d.(u).(v) <> d.(v).(u) then ok := false
    done
  done;
  !ok

let triangle_inequality g d =
  let n = Graph.order g in
  let ok = ref true in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      Array.iter
        (fun w -> if d.(u).(v) > d.(u).(w) + 1 then ok := false)
        (Graph.neighbors g v)
    done
  done;
  !ok

(* ---------- the kernel against the Queue-based BFS it replaced ---------- *)

(* The Queue-based [distances_with_parents] that Bfs ran before the
   kernel, kept as the oracle. It also returns the order in which
   vertices left the queue. *)
let oracle g src =
  let n = Graph.order g in
  let dist = Array.make n Bfs.infinity in
  let parent = Array.make n (-1) in
  let queue = Queue.create () in
  let order = ref [] in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    order := v :: !order;
    let dv = dist.(v) in
    Array.iter
      (fun w ->
        if dist.(w) = Bfs.infinity then begin
          dist.(w) <- dv + 1;
          parent.(w) <- v;
          Queue.add w queue
        end)
      (Graph.neighbors g v)
  done;
  (dist, parent, Array.of_list (List.rev !order))

(* Connected and disconnected graphs, edgeless ones, n = 1, long paths
   and paths hung off a random graph. *)
let bfs_graph =
  Gen.make ~print:Gen.print_graph (fun st ->
      let connected () = (Gen.connected_graph ~max_n:30 ()).Gen.gen st in
      match Random.State.int st 7 with
      | 0 -> Graph.disjoint_union (connected ()) (connected ())
      | 1 -> Graph.empty (1 + Random.State.int st 4)
      | 2 -> Generators.path (100 + Random.State.int st 200)
      | 3 ->
        let g = connected () in
        Graph.attach_path g ~anchor:(Random.State.int st (Graph.order g))
          ~len:(1 + Random.State.int st 60)
      | 4 -> Graph.disjoint_union (connected ()) (Graph.empty 3)
      | _ -> connected ())

let visited ws = Array.sub (Bfs.visit_order ws) 0 (Bfs.reached ws)
let first n a = Array.sub a 0 n

(* Past the graph's order a workspace's arrays stay clean. *)
let clean_past n a blank =
  let ok = ref true in
  for v = n to Array.length a - 1 do
    if a.(v) <> blank then ok := false
  done;
  !ok

let kernel_matches_oracle g =
  let n = Graph.order g in
  let ws = Bfs.workspace () in
  List.for_all
    (fun src ->
      let dist, parent, order = oracle g src in
      Bfs.search ~parents:true ws g src;
      first n (Bfs.dist_array ws) = dist
      && first n (Bfs.parent_array ws) = parent
      && visited ws = order
      && Bfs.distances g src = dist
      && Bfs.distances_with_parents g src = (dist, parent)
      && Bfs.distances_with ws g src = dist)
    (List.init n Fun.id)

(* The bounded mode reaches exactly { v : d(src,v) < radius }, src
   first, in BFS order: the unbounded visit order cut to the ball. *)
let bounded_is_ball g =
  let n = Graph.order g in
  let ws = Bfs.workspace () in
  List.for_all
    (fun src ->
      let dist, _, order = oracle g src in
      let ecc = Array.fold_left (fun m d -> if d = Bfs.infinity then m else max m d) 0 dist in
      List.for_all
        (fun radius ->
          Bfs.search ~radius ws g src;
          let inside v = dist.(v) < radius in
          visited ws = Array.of_list (List.filter inside (Array.to_list order))
          && (visited ws).(0) = src
          && first n (Bfs.dist_array ws)
             = Array.map (fun d -> if d < radius then d else Bfs.infinity) dist)
        (List.sort_uniq compare (ecc + 1 :: ecc + 2 :: List.init 6 (fun r -> r + 1))))
    (List.init n Fun.id)

(* One workspace through a seeded run of searches (any source, bounded
   or not, with or without parents) over graphs of different orders
   gives what a fresh workspace gives each time. *)
let search_run =
  let print_search (src, parents, radius) =
    Printf.sprintf "\n  search src=%d parents=%b radius=%s" src parents
      (Option.fold ~none:"none" ~some:string_of_int radius)
  in
  let print (g, searches) =
    Gen.print_graph g ^ String.concat "" (List.map print_search searches)
  in
  Gen.make
    ~print:(fun run -> String.concat "\n" (List.map print run))
    (fun st ->
      List.init (2 + Random.State.int st 5) (fun _ ->
          let g = bfs_graph.Gen.gen st in
          ( g,
            List.init 8 (fun _ ->
                ( Random.State.int st (Graph.order g),
                  Random.State.bool st,
                  if Random.State.bool st then None else Some (1 + Random.State.int st 6) )) )))

let reused_equals_fresh run =
  let ws = Bfs.workspace () in
  List.for_all
    (fun (g, searches) ->
      let n = Graph.order g in
      List.for_all
        (fun (src, parents, radius) ->
          let fresh = Bfs.workspace () in
          Bfs.search ~parents ?radius fresh g src;
          Bfs.search ~parents ?radius ws g src;
          visited ws = visited fresh
          && first n (Bfs.dist_array ws) = Bfs.dist_array fresh
          && clean_past n (Bfs.dist_array ws) Bfs.infinity
          && ((not parents)
             || first n (Bfs.parent_array ws) = Bfs.parent_array fresh
                && clean_past n (Bfs.parent_array ws) (-1)))
        searches)
    run

(* ---------- the pair search against the kernel ---------- *)

(* Seeded BA, grid, path, random-tree and random connected graphs, and
   disjoint unions of two of them, so that some pairs are unreachable. *)
let pair_graph st =
  let one () =
    let n = 1 + Random.State.int st 60 in
    match Random.State.int st 5 with
    | 0 -> Generators.barabasi_albert st ~n:(n + 2) ~m:(1 + Random.State.int st 2)
    | 1 -> Generators.grid (1 + Random.State.int st 9) (1 + Random.State.int st 9)
    | 2 -> Generators.path n
    | 3 -> Generators.random_tree st n
    | _ ->
      Generators.random_connected st ~n ~m:(min (n * (n - 1) / 2) (n - 1 + Random.State.int st n))
  in
  if Random.State.int st 3 = 0 then Graph.disjoint_union (one ()) (one ()) else one ()

(* A seeded run of graphs, their orders rising and falling, each with
   random pairs and one pair u = u. *)
let pair_run =
  let print (g, pairs) =
    Gen.print_graph g ^ "\n  pairs "
    ^ String.concat " " (List.map (fun (u, v) -> Printf.sprintf "%d-%d" u v) pairs)
  in
  Gen.make
    ~print:(fun run -> String.concat "\n" (List.map print run))
    (fun st ->
      List.init (2 + Random.State.int st 5) (fun _ ->
          let g = pair_graph st in
          let n = Graph.order g in
          let u = Random.State.int st n in
          (g, (u, u) :: List.init 12 (fun _ -> (Random.State.int st n, Random.State.int st n)))))

(* One pair workspace through the whole run agrees with a full BFS on
   every pair, and scans at most the arcs of one: the two balls it
   expands are disjoint. *)
let pairs_match_kernel run =
  let pw = Bfs.pair_workspace () in
  List.for_all
    (fun (g, pairs) ->
      List.for_all
        (fun (u, v) ->
          let d = (Bfs.distances g u).(v) in
          Bfs.distance_between pw g u v = d
          && Bfs.scanned pw <= 2 * Graph.size g
          && (u <> v || Bfs.scanned pw = 0)
          && Bfs.dist g u v = d)
        pairs)
    run

let test_pair_edges () =
  let pw = Bfs.pair_workspace () in
  check_int "n = 1" 0 (Bfs.distance_between pw (Graph.empty 1) 0 0);
  let two = Graph.disjoint_union (Generators.path 4) (Generators.grid 3 3) in
  check_true "two components" (Bfs.distance_between pw two 1 9 = Bfs.infinity);
  check_true "two components, other way" (Bfs.distance_between pw two 12 0 = Bfs.infinity);
  check_int "within the second" 4 (Bfs.distance_between pw two 4 12);
  let long = Generators.path 5000 in
  check_int "ends of a path" 4999 (Bfs.distance_between pw long 0 4999);
  check_int "ends of a path, reversed" 4999 (Bfs.distance_between pw long 4999 0);
  check_true "the ends' balls scan one BFS's arcs at most"
    (Bfs.scanned pw <= 2 * Graph.size long);
  List.iter
    (fun (name, u, v) ->
      check_true name
        (try ignore (Bfs.distance_between pw long u v); false
         with Invalid_argument _ -> true);
      check_true ("dist: " ^ name)
        (try ignore (Bfs.dist long u v); false with Invalid_argument _ -> true))
    [ ("bad source", -1, 0); ("bad destination", 0, 5000) ]

(* Like [canonical_rows allocates nothing per call]: a warm workspace
   searches without touching the minor heap. *)
let test_warm_search_allocates_nothing () =
  let g = Generators.barabasi_albert (rng ()) ~n:500 ~m:2 in
  let ws = Bfs.workspace () in
  let pw = Bfs.pair_workspace () in
  List.iter
    (fun (name, run) ->
      run 0;
      let calls = 1000 in
      let before = Gc.minor_words () in
      for i = 1 to calls do
        run (i mod 500)
      done;
      let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
      check_true (Printf.sprintf "%s: %.3f minor words per call" name per_call) (per_call < 1.0))
    [
      ("plain", fun src -> Bfs.search ws g src);
      ("parents", fun src -> Bfs.search ~parents:true ws g src);
      ("bounded", fun src -> Bfs.search ~radius:3 ws g src);
      ("pair", fun src -> ignore (Bfs.distance_between pw g src ((src * 7) mod 500)));
    ]

let test_kernel_edges () =
  let ws = Bfs.workspace () in
  let one = Graph.empty 1 in
  Bfs.search ~parents:true ws one 0;
  check_true "n = 1" (visited ws = [| 0 |] && (Bfs.dist_array ws).(0) = 0);
  let long = Generators.path 5000 in
  Bfs.search ws long 0;
  check_int "long path: last vertex" 4999 (Bfs.dist_array ws).(4999);
  check_int "long path: eccentricity" 4999 (Bfs.eccentricity long 0);
  check_true "parent_array after a search without parents"
    (try ignore (Bfs.parent_array ws); false with Invalid_argument _ -> true);
  check_true "radius 0 rejected"
    (try Bfs.search ~radius:0 ws long 0; false with Invalid_argument _ -> true);
  check_true "bad source rejected"
    (try Bfs.search ws long 5000; false with Invalid_argument _ -> true)

(* The parent ports, over the same runs: the search found each vertex
   it reached, other than the source, through port pport.(y) of
   parent.(y), the first arc of the parent's row to it; pport reads 0
   wherever parent reads -1, and a search without parents leaves no
   ports to read. One workspace through searches with and without
   parents, bounded or not, gives what a fresh one gives. *)
let parent_ports_hold run =
  let ws = Bfs.workspace () in
  let ports_hold g src =
    let n = Graph.order g in
    let parent = Bfs.parent_array ws and pport = Bfs.parent_port_array ws in
    clean_past n pport 0
    && pport.(src) = 0
    && List.for_all
         (fun y ->
           if parent.(y) = -1 then pport.(y) = 0
           else
             Graph.neighbor g parent.(y) ~port:pport.(y) = y
             && Graph.port_to g ~src:parent.(y) ~dst:y = Some pport.(y))
         (List.init n Fun.id)
  in
  List.for_all
    (fun (g, searches) ->
      List.for_all
        (fun (src, parents, radius) ->
          Bfs.search ~parents ?radius ws g src;
          if parents then begin
            let fresh = Bfs.workspace () in
            Bfs.search ~parents ?radius fresh g src;
            first (Graph.order g) (Bfs.parent_port_array ws) = Bfs.parent_port_array fresh
            && ports_hold g src
          end
          else try ignore (Bfs.parent_port_array ws); false with Invalid_argument _ -> true)
        searches)
    run

(* ---------- connectivity against the Queue loop it replaced ---------- *)

(* Graph.is_connected before the kernel took it over: a Stdlib.Queue
   BFS from vertex 0 counting the vertices it reaches. *)
let connected_oracle g =
  let n = Graph.order g in
  if n = 0 then true
  else begin
    let seen = Array.make n false in
    let queue = Queue.create () in
    Queue.add 0 queue;
    seen.(0) <- true;
    let count = ref 1 in
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Array.iter
        (fun w ->
          if not seen.(w) then begin
            seen.(w) <- true;
            incr count;
            Queue.add w queue
          end)
        (Graph.neighbors g v)
    done;
    !count = n
  end

(* bfs_graph's graphs, and connected graphs with one isolated vertex
   put first or last, which a search from vertex 0 misses alone or
   starts from. *)
let connectivity_graph =
  let connected = Gen.connected_graph ~max_n:30 () in
  Gen.make ~print:Gen.print_graph (fun st ->
      match Random.State.int st 3 with
      | 0 -> Graph.disjoint_union (connected.Gen.gen st) (Graph.empty 1)
      | 1 -> Graph.disjoint_union (Graph.empty 1) (connected.Gen.gen st)
      | _ -> bfs_graph.Gen.gen st)

let test_is_connected_small () =
  List.iter
    (fun (name, g, expected) ->
      check_true name (Bfs.is_connected g = expected && connected_oracle g = expected))
    [
      ("order 0", Graph.empty 0, true);
      ("order 1", Graph.empty 1, true);
      ("order 2, no edge", Graph.empty 2, false);
      ("order 2, an edge", Generators.path 2, true);
    ]

let suite =
  [
    case "path distances" test_path_distances;
    case "unreachable is infinity" test_unreachable;
    case "cycle metric" test_cycle_metric;
    case "star center" test_star_center;
    case "shortest_path extraction" test_shortest_path;
    case "hypercube = hamming" test_hypercube_distances_are_hamming;
    case "bfs_tree" test_bfs_tree;
    case "count_shortest_paths" test_count_shortest_paths;
    prop "all_pairs symmetric" arbitrary_connected_graph (fun g ->
        symmetric_matrix (Bfs.all_pairs g));
    prop "adjacent distance relaxation" arbitrary_connected_graph (fun g ->
        triangle_inequality g (Bfs.all_pairs g));
    prop "diameter >= radius" arbitrary_connected_graph (fun g ->
        Bfs.diameter g >= Bfs.radius g);
    prop "shortest_path length = distance" arbitrary_connected_graph (fun g ->
        let st = rng () in
        let n = Graph.order g in
        let u = Random.State.int st n and v = Random.State.int st n in
        match Bfs.shortest_path g u v with
        | Some p -> List.length p - 1 = Bfs.dist g u v
        | None -> false);
    prop "bfs tree preserves root distances" arbitrary_connected_graph
      (fun g -> Bfs.distances (Bfs.bfs_tree g 0) 0 = Bfs.distances g 0);
    Gen.prop ~count:100 "kernel = Queue oracle from every source" bfs_graph
      kernel_matches_oracle;
    Gen.prop ~count:60 "bounded search = ball in BFS order" bfs_graph bounded_is_ball;
    Gen.prop ~count:60 "one workspace across sources and orders" search_run
      reused_equals_fresh;
    Gen.prop ~count:100 "pair search = kernel, one workspace" pair_run pairs_match_kernel;
    case "pair search edge cases" test_pair_edges;
    case "warm search allocates nothing" test_warm_search_allocates_nothing;
    case "kernel edge cases" test_kernel_edges;
    Gen.prop ~count:60 "parent ports lead to the children, one workspace" search_run
      parent_ports_hold;
    Gen.prop ~count:200 "is_connected = Queue loop" connectivity_graph (fun g ->
        Bfs.is_connected g = connected_oracle g);
    case "is_connected on orders 0, 1 and 2" test_is_connected_small;
  ]
