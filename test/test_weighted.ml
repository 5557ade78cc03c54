open Umrs_graph
open Umrs_routing
open Helpers

(* ---------- heap ---------- *)

let test_heap_basic () =
  let h = Heap.create () in
  check_true "empty" (Heap.is_empty h);
  Heap.push h ~priority:5 "e";
  Heap.push h ~priority:1 "a";
  Heap.push h ~priority:3 "c";
  check_int "size" 3 (Heap.size h);
  check_true "peek" (Heap.peek_min h = Some (1, "a"));
  check_true "pop1" (Heap.pop_min h = Some (1, "a"));
  check_true "pop2" (Heap.pop_min h = Some (3, "c"));
  check_true "pop3" (Heap.pop_min h = Some (5, "e"));
  check_true "pop empty" (Heap.pop_min h = None)

let test_heap_sorts () =
  let st = rng () in
  let h = Heap.create () in
  let xs = Array.init 500 (fun _ -> Random.State.int st 10000) in
  Array.iter (fun x -> Heap.push h ~priority:x x) xs;
  let out = ref [] in
  let rec drain () =
    match Heap.pop_min h with
    | Some (k, _) ->
      out := k :: !out;
      drain ()
    | None -> ()
  in
  drain ();
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  check_true "heap sorts" (List.rev !out = Array.to_list sorted)

(* ---------- weighted graphs ---------- *)

let test_uniform_matches_bfs () =
  let g = Generators.petersen () in
  let w = Weighted.uniform g in
  for v = 0 to 9 do
    check_true "dijkstra = bfs" (Weighted.dijkstra w v = Bfs.distances g v)
  done

let test_weights_validated () =
  let g = Generators.path 3 in
  check_true "non-positive rejected"
    (try ignore (Weighted.of_graph g (fun _ _ -> 0)); false
     with Invalid_argument _ -> true);
  (* asymmetric cost rejected *)
  check_true "asymmetric rejected"
    (try
       ignore (Weighted.of_graph g (fun v k -> if v = 0 && k = 1 then 5 else 1));
       false
     with Invalid_argument _ -> true)

let test_weighted_shortcut () =
  (* triangle with one heavy edge: shortest path avoids it *)
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let cost v k =
    let w = Graph.neighbor g v ~port:k in
    if (min v w, max v w) = (0, 2) then 10 else 1
  in
  let w = Weighted.of_graph g cost in
  check_int "dist avoids heavy edge" 2 (Weighted.dijkstra w 0).(2);
  check_true "path goes around" (Weighted.shortest_path w 0 2 = Some [ 0; 1; 2 ]);
  check_int "edge cost accessor" 10 (Weighted.edge_cost w 0 2);
  check_int "path cost" 2 (Weighted.path_cost w [ 0; 1; 2 ])

let test_weighted_tables_optimal () =
  let st = rng () in
  let g = Generators.random_connected st ~n:12 ~m:24 in
  let w = Weighted.random st ~max_cost:9 g in
  let b = Weighted_tables.build w in
  check_true "delivers" (Routing_function.delivers_all b.Scheme.rf);
  check_true "weighted stretch 1"
    (Weighted_tables.stretch_at_most w b.Scheme.rf ~num:1 ~den:1);
  let s = Weighted_tables.stretch w b.Scheme.rf in
  Alcotest.(check (float 1e-9)) "ratio 1" 1.0 s.Stretch_dist.ds_max

let test_hop_tables_suboptimal_on_weights () =
  (* unweighted tables ignore costs: on the heavy-edge triangle they
     route 0 -> 2 directly, paying 10 instead of 2 *)
  let g = Graph.of_edges ~n:3 [ (0, 1); (1, 2); (0, 2) ] in
  let cost v k =
    let x = Graph.neighbor g v ~port:k in
    if (min v x, max v x) = (0, 2) then 10 else 1
  in
  let w = Weighted.of_graph g cost in
  let hop_tables = Table_scheme.build g in
  check_true "hop routing is weight-suboptimal"
    (not (Weighted_tables.stretch_at_most w hop_tables.Scheme.rf ~num:1 ~den:1));
  let s = Weighted_tables.stretch w hop_tables.Scheme.rf in
  Alcotest.(check (float 1e-9)) "pays 5x" 5.0 s.Stretch_dist.ds_max

let weighted_arb =
  let gen =
    QCheck.Gen.map
      (fun (seed, n, extra) ->
        let n = 3 + (abs n mod 12) in
        let m = min (n * (n - 1) / 2) (n - 1 + (abs extra mod n)) in
        let st = Random.State.make [| seed; n |] in
        let g = Generators.random_connected st ~n ~m in
        Weighted.random st ~max_cost:7 g)
      QCheck.Gen.(triple int int int)
  in
  QCheck.make ~print:(fun w -> Format.asprintf "%a" Graph.pp (Weighted.graph w)) gen

let suite =
  [
    case "heap basics" test_heap_basic;
    case "heap sorts 500 elements" test_heap_sorts;
    case "uniform dijkstra = bfs" test_uniform_matches_bfs;
    case "weights validated" test_weights_validated;
    case "heavy edge avoided" test_weighted_shortcut;
    case "weighted tables are optimal" test_weighted_tables_optimal;
    case "hop tables suboptimal under weights" test_hop_tables_suboptimal_on_weights;
    prop ~count:40 "dijkstra triangle inequality" weighted_arb (fun w ->
        let g = Weighted.graph w in
        let n = Graph.order g in
        let dist = Weighted.all_pairs w in
        let ok = ref true in
        for u = 0 to n - 1 do
          Graph.iter_arcs g (fun x k y ->
              if dist.(u).(y) > dist.(u).(x) + Weighted.cost w x k then
                ok := false)
        done;
        !ok);
    prop ~count:40 "dijkstra symmetric" weighted_arb (fun w ->
        let n = Graph.order (Weighted.graph w) in
        let dist = Weighted.all_pairs w in
        let ok = ref true in
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            if dist.(u).(v) <> dist.(v).(u) then ok := false
          done
        done;
        !ok);
    prop ~count:40 "shortest_path cost equals distance" weighted_arb (fun w ->
        let n = Graph.order (Weighted.graph w) in
        let st = rng () in
        let u = Random.State.int st n and v = Random.State.int st n in
        u = v
        ||
        match Weighted.shortest_path w u v with
        | Some p -> Weighted.path_cost w p = (Weighted.dijkstra w u).(v)
        | None -> false);
    prop ~count:30 "weighted tables stretch 1 (random)" weighted_arb (fun w ->
        Weighted_tables.stretch_at_most w
          (Weighted_tables.build w).Scheme.rf ~num:1 ~den:1);
  ]
