open Umrs_graph
open Helpers

let triangle () = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (2, 0) ]

let test_of_edges_basic () =
  let g = triangle () in
  check_int "order" 3 (Graph.order g);
  check_int "size" 3 (Graph.size g);
  check_int "degree" 2 (Graph.degree g 0);
  check_int "max degree" 2 (Graph.max_degree g)

let test_port_semantics () =
  (* ports follow edge insertion order *)
  let g = Graph.of_edges ~n:3 [ (0, 1); (0, 2) ] in
  check_int "port 1 of 0" 1 (Graph.neighbor g 0 ~port:1);
  check_int "port 2 of 0" 2 (Graph.neighbor g 0 ~port:2);
  check_true "port_to" (Graph.port_to g ~src:0 ~dst:2 = Some 2);
  check_true "port_to absent" (Graph.port_to g ~src:1 ~dst:2 = None)

let test_invalid_inputs () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_true "loop rejected" (raises (fun () -> Graph.of_edges ~n:2 [ (0, 0) ]));
  check_true "dup rejected"
    (raises (fun () -> Graph.of_edges ~n:2 [ (0, 1); (1, 0) ]));
  check_true "range rejected" (raises (fun () -> Graph.of_edges ~n:2 [ (0, 5) ]));
  check_true "bad port"
    (raises (fun () -> Graph.neighbor (triangle ()) 0 ~port:3))

let test_of_adjacency_symmetric () =
  let raises f = try ignore (f ()); false with Invalid_argument _ -> true in
  check_true "asymmetric rejected"
    (raises (fun () -> Graph.of_adjacency [| [| 1 |]; [||] |]));
  let g = Graph.of_adjacency [| [| 1 |]; [| 0 |] |] in
  check_int "edge count" 1 (Graph.size g)

let test_edges_iter_arcs () =
  let g = triangle () in
  check_true "edges" (List.sort compare (Graph.edges g) = [ (0, 1); (0, 2); (1, 2) ]);
  let arcs = ref 0 in
  Graph.iter_arcs g (fun _ _ _ -> incr arcs);
  check_int "arc count = 2m" 6 !arcs

let test_relabel_ports () =
  let g = Graph.of_edges ~n:3 [ (0, 1); (0, 2) ] in
  let perms = [| [| 1; 0 |]; [| 0 |]; [| 0 |] |] in
  let g' = Graph.relabel_ports g perms in
  check_int "swapped port 1" 2 (Graph.neighbor g' 0 ~port:1);
  check_int "swapped port 2" 1 (Graph.neighbor g' 0 ~port:2);
  check_int "other vertex unchanged" 0 (Graph.neighbor g' 1 ~port:1)

let test_permute_vertices () =
  let g = Graph.of_edges ~n:3 [ (0, 1) ] in
  let g' = Graph.permute_vertices g [| 2; 0; 1 |] in
  check_true "edge moved" (Graph.mem_edge g' 2 0);
  check_true "old edge gone" (not (Graph.mem_edge g' 0 1))

let test_attach_path () =
  let g = triangle () in
  let g' = Graph.attach_path g ~anchor:1 ~len:3 in
  check_int "order" 6 (Graph.order g');
  check_int "size" 6 (Graph.size g');
  check_true "chain" (Graph.mem_edge g' 1 3 && Graph.mem_edge g' 3 4 && Graph.mem_edge g' 4 5);
  check_int "tail degree" 1 (Graph.degree g' 5);
  check_true "len 0 is id" (Graph.equal g (Graph.attach_path g ~anchor:0 ~len:0))

let test_disjoint_union () =
  let g = Graph.disjoint_union (triangle ()) (triangle ()) in
  check_int "order" 6 (Graph.order g);
  check_true "shifted edge" (Graph.mem_edge g 3 4);
  check_true "not connected" (not (Bfs.is_connected g))

let test_add_edge () =
  let g = Graph.add_edge (Graph.empty 2) 0 1 in
  check_true "edge added" (Graph.mem_edge g 0 1);
  check_true "connected now" (Bfs.is_connected g)

let test_is_connected () =
  check_true "triangle" (Bfs.is_connected (triangle ()));
  check_true "empty graph" (Bfs.is_connected (Graph.empty 0));
  check_true "singleton" (Bfs.is_connected (Graph.empty 1));
  check_true "two isolated" (not (Bfs.is_connected (Graph.empty 2)))

(* ---------- adjacency validation ---------- *)

(* The check as it stood with a Hashtbl per row: the oracle for the
   stamp array. *)
let check_oracle adj =
  let n = Array.length adj in
  Array.iteri
    (fun v row ->
      let seen = Hashtbl.create (Array.length row) in
      Array.iter
        (fun w ->
          if w < 0 || w >= n then invalid_arg "Graph: endpoint out of range";
          if w = v then invalid_arg "Graph: loop";
          if Hashtbl.mem seen w then invalid_arg "Graph: duplicate edge";
          Hashtbl.add seen w ();
          if not (Array.exists (fun x -> x = v) adj.(w)) then
            invalid_arg "Graph: not symmetric")
        row)
    adj

let outcome f = match f () with _ -> Ok () | exception Invalid_argument msg -> Error msg

let test_malformed_adjacency () =
  let expect name msg adj =
    Alcotest.(check (result unit string)) name msg (outcome (fun () -> Graph.of_adjacency adj))
  in
  expect "endpoint past n" (Error "Graph: endpoint out of range") [| [| 1 |]; [| 0; 5 |] |];
  expect "negative endpoint" (Error "Graph: endpoint out of range") [| [| -1 |] |];
  expect "loop" (Error "Graph: loop") [| [| 0 |] |];
  expect "duplicate" (Error "Graph: duplicate edge") [| [| 1; 1 |]; [| 0 |] |];
  (* row 1 repeats neighbour 2, which row 0 also lists *)
  expect "duplicate after a shared neighbour" (Error "Graph: duplicate edge")
    [| [| 2 |]; [| 2; 2 |]; [| 0; 1 |] |];
  expect "not symmetric" (Error "Graph: not symmetric") [| [| 1 |]; [||] |];
  (* consecutive rows sharing neighbours are no duplicate *)
  expect "triangle" (Ok ()) [| [| 1; 2 |]; [| 0; 2 |]; [| 0; 1 |] |];
  expect "vertex 0's first neighbour" (Ok ()) [| [| 1 |]; [| 0 |] |];
  let of_edges edges = outcome (fun () -> Graph.of_edges ~n:3 edges) in
  Alcotest.(check (result unit string)) "of_edges duplicate" (Error "Graph: duplicate edge")
    (of_edges [ (0, 1); (1, 2); (1, 0) ]);
  Alcotest.(check (result unit string)) "of_edges shared endpoints" (Ok ())
    (of_edges [ (0, 1); (1, 2); (2, 0) ]);
  Alcotest.(check (result unit string)) "of_edges loop" (Error "Graph.of_edges: loop")
    (of_edges [ (0, 1); (2, 2) ]);
  Alcotest.(check (result unit string)) "of_edges range"
    (Error "Graph.of_edges: endpoint out of range") (of_edges [ (0, 3) ])

(* Small symmetric graphs, then a few entries rewritten at random
   (possibly out of range, a loop or a copy of a neighbour). *)
let adjacency_case =
  let print adj =
    String.concat "; "
      (Array.to_list
         (Array.map (fun r -> String.concat " " (Array.to_list (Array.map string_of_int r))) adj))
  in
  let graphs = Gen.connected_graph ~max_n:12 () in
  Gen.make ~print (fun st ->
      let g = graphs.Gen.gen st in
      let n = Graph.order g in
      let adj = Array.init n (fun v -> Array.copy (Graph.neighbors g v)) in
      for _ = 1 to Random.State.int st 3 do
        let v = Random.State.int st n in
        let row = adj.(v) in
        let k = Random.State.int st (Array.length row + 1) in
        let w = Random.State.int st (n + 2) - 1 in
        adj.(v) <- Array.append (Array.sub row 0 k) (Array.append [| w |] (Array.sub row k (Array.length row - k)));
        if Random.State.bool st && Array.length row > 0 then
          adj.(v) <- Array.sub adj.(v) 1 (Array.length row)
      done;
      adj)

let suite =
  [
    case "of_edges basics" test_of_edges_basic;
    case "port semantics" test_port_semantics;
    case "invalid inputs" test_invalid_inputs;
    case "of_adjacency symmetry" test_of_adjacency_symmetric;
    case "edges and arcs" test_edges_iter_arcs;
    case "relabel_ports" test_relabel_ports;
    case "permute_vertices" test_permute_vertices;
    case "attach_path" test_attach_path;
    case "disjoint_union" test_disjoint_union;
    case "add_edge" test_add_edge;
    case "is_connected" test_is_connected;
    prop "generated graphs are connected" arbitrary_connected_graph
      Bfs.is_connected;
    prop "arc count is twice edge count" arbitrary_connected_graph (fun g ->
        let arcs = ref 0 in
        Graph.iter_arcs g (fun _ _ _ -> incr arcs);
        !arcs = 2 * Graph.size g);
    prop "port_to agrees with neighbor" arbitrary_connected_graph (fun g ->
        Graph.fold_vertices g
          (fun ok v ->
            ok
            && List.for_all
                 (fun k ->
                   Graph.port_to g ~src:v ~dst:(Graph.neighbor g v ~port:k)
                   = Some k)
                 (List.init (Graph.degree g v) (fun k -> k + 1)))
          true);
    prop "vertex permutation preserves size" arbitrary_connected_graph (fun g ->
        let st = rng () in
        let p = Perm.random st (Graph.order g) in
        Graph.size (Graph.permute_vertices g p) = Graph.size g);
    case "malformed adjacency: the messages" test_malformed_adjacency;
    Gen.prop ~count:500 "of_adjacency = per-row Hashtbl check" adjacency_case (fun adj ->
        outcome (fun () -> Graph.of_adjacency adj) = outcome (fun () -> check_oracle adj));
  ]
