open Umrs_graph
open Umrs_routing
open Helpers

let tables g = (Table_scheme.build g).Scheme.rf

let test_tree_broadcast_star () =
  let g = Generators.star 9 in
  let r = Collective.broadcast_tree g ~root:0 in
  check_int "rounds = ecc" 1 r.Collective.rounds;
  check_int "messages = n-1" 8 r.Collective.messages;
  check_int "all reached" 9 r.Collective.reached

let test_tree_broadcast_path () =
  let g = Generators.path 10 in
  let r = Collective.broadcast_tree g ~root:0 in
  check_int "rounds = 9" 9 r.Collective.rounds;
  let mid = Collective.broadcast_tree g ~root:5 in
  check_int "center is faster" 5 mid.Collective.rounds

let test_unicast_vs_tree () =
  (* the star root must serialize unicasts over each spoke - but each
     spoke is a distinct link, so contention hits only shared prefixes.
     On a path, unicast from an endpoint piles onto the first link. *)
  let g = Generators.path 12 in
  let uni = Collective.broadcast_unicast (tables g) ~root:0 in
  let tree = Collective.broadcast_tree g ~root:0 in
  check_int "unicast reaches everyone" 12 uni.Collective.reached;
  check_true "tree needs fewer messages"
    (tree.Collective.messages < uni.Collective.messages);
  check_true "tree is no slower" (tree.Collective.rounds <= uni.Collective.rounds)

let test_convergecast () =
  let g = Generators.grid 4 4 in
  let r = Collective.convergecast_tree g ~root:0 in
  check_int "rounds = ecc" (Bfs.eccentricity g 0) r.Collective.rounds;
  check_int "messages" 15 r.Collective.messages

let test_disconnected_rejected () =
  check_true "raises"
    (try ignore (Collective.broadcast_tree (Graph.empty 3) ~root:0); false
     with Invalid_argument _ -> true)

let test_sampled_stretch () =
  let seed = Random.State.bits (rng ()) in
  let g = Generators.torus 5 5 in
  let exact = (Stretch_dist.exact (tables g)).Stretch_dist.ds_max in
  let sampled = (Stretch_dist.sampled ~seed ~pairs:60 (tables g)).Stretch_dist.ds_max in
  check_true "sampled <= exact" (sampled <= exact +. 1e-9);
  check_true "sampled >= 1" (sampled >= 1.0);
  (* on a detour-heavy function, sampling finds stretch > 1 quickly *)
  let b = Spanner_scheme.build ~k:2 (Generators.complete 16) in
  check_true "detects stretch"
    ((Stretch_dist.sampled ~seed ~pairs:120 b.Scheme.rf).Stretch_dist.ds_max > 1.0)

(* Four domains read one fresh build, each filling the columns it
   asks for; the checks run in the main domain. *)
let test_parallel_table_build () =
  let st = rng () in
  let g = Generators.random_connected st ~n:40 ~m:90 in
  let n = Graph.order g and b = Table_scheme.build g in
  let port u v =
    match b.Scheme.rf.Routing_function.port u (Routing_function.Dest v) with
    | Some k -> k
    | None -> 0
  in
  let rows =
    Parallel.map_range ~domains:4 n (fun u -> Array.init n (fun v -> if u = v then 0 else port u v))
  in
  check_true "parallel = sequential" (rows = Table_scheme.next_hop_matrix g)

let suite =
  [
    case "tree broadcast on a star" test_tree_broadcast_star;
    case "tree broadcast on a path" test_tree_broadcast_path;
    case "unicast vs tree broadcast" test_unicast_vs_tree;
    case "convergecast" test_convergecast;
    case "disconnected rejected" test_disconnected_rejected;
    case "sampled stretch" test_sampled_stretch;
    case "parallel table build" test_parallel_table_build;
    prop ~count:25 "tree broadcast reaches everyone in ecc rounds"
      arbitrary_connected_graph (fun g ->
        let r = Collective.broadcast_tree g ~root:0 in
        r.Collective.reached = Graph.order g
        && r.Collective.rounds = Bfs.eccentricity g 0
        && r.Collective.messages = Graph.order g - 1);
    prop ~count:20 "unicast broadcast reaches everyone"
      arbitrary_connected_graph (fun g ->
        (Collective.broadcast_unicast (tables g) ~root:0).Collective.reached
        = Graph.order g);
  ]
