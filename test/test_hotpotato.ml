(* Hot-potato routing over the simulator: with no contention a packet
   takes a shortest path, and under contention it is deflected rather
   than queued. *)

open Umrs_graph
open Umrs_routing
open Helpers

let tables g = (Table_scheme.build g).Scheme.rf

let test_hot_potato_no_contention () =
  let st = rng () in
  let rf = tables (Generators.torus 4 4) in
  let s = Simulator.run_hot_potato st rf ~pairs:[ (0, 10) ] in
  check_int "delivered" 1 s.Simulator.delivered;
  (* alone, never deflected: hops = distance *)
  check_int "shortest" (Bfs.dist (Generators.torus 4 4) 0 10) s.Simulator.total_hops

let test_hot_potato_deflects_not_queues () =
  let st = rng () in
  let g = Generators.torus 4 4 in
  let rf = tables g in
  let pairs = List.init 12 (fun _ -> (0, 10)) in
  let hot = Simulator.run_hot_potato st rf ~pairs in
  let store = Simulator.run rf ~pairs in
  check_int "all delivered" 12 hot.Simulator.delivered;
  (* deflection converts waiting into extra hops *)
  check_true "hops inflate" (hot.Simulator.total_hops >= store.Simulator.total_hops);
  check_true "sane" (hot.Simulator.rounds > 0)

let test_hot_potato_random_traffic () =
  let st = rng () in
  let rf = tables (Generators.hypercube 4) in
  let s = Simulator.random_pairs st rf ~count:1 in
  ignore s;
  let pairs = List.init 40 (fun i -> (i mod 16, (i * 7 + 3) mod 16))
              |> List.filter (fun (a, b) -> a <> b) in
  let hot = Simulator.run_hot_potato st rf ~pairs in
  check_true "most delivered"
    (hot.Simulator.delivered >= (List.length pairs * 9) / 10)

let suite =
  [
    case "hot potato: solo = shortest" test_hot_potato_no_contention;
    case "hot potato: deflects instead of queueing" test_hot_potato_deflects_not_queues;
    case "hot potato: random traffic mostly delivered" test_hot_potato_random_traffic;
    prop ~count:20 "hot potato delivers under light load"
      arbitrary_connected_graph (fun g ->
        let st = rng () in
        let n = Graph.order g in
        let rf = tables g in
        let pairs = [ (0, n - 1) ] in
        let s = Simulator.run_hot_potato st rf ~pairs in
        s.Simulator.delivered = 1);
  ]
