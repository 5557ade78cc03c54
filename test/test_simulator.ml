open Umrs_graph
open Umrs_routing
open Helpers

let tables g = (Table_scheme.build g).Scheme.rf

let test_single_packet () =
  let rf = tables (Generators.path 5) in
  let s = Simulator.run rf ~pairs:[ (0, 4) ] in
  check_int "delivered" 1 s.Simulator.delivered;
  check_int "hops" 4 s.Simulator.total_hops;
  check_int "rounds = hops (no contention)" 4 s.Simulator.rounds

let test_no_packets () =
  let rf = tables (Generators.path 3) in
  let s = Simulator.run rf ~pairs:[] in
  check_int "none" 0 s.Simulator.packets;
  check_int "rounds" 0 s.Simulator.rounds

let test_contention_serializes () =
  (* two packets over the same directed arc of an edge: one must wait *)
  let rf = tables (Generators.path 3) in
  let s = Simulator.run rf ~pairs:[ (0, 2); (0, 2) ] in
  check_int "both arrive" 2 s.Simulator.delivered;
  check_true "second is delayed" (s.Simulator.rounds > 2);
  check_true "queue observed" (s.Simulator.max_queue >= 2)

let test_all_pairs_star () =
  (* star: hub arcs are the bottleneck; total hops = 2*(n-1)(n-2) + 2(n-1) *)
  let n = 6 in
  let rf = tables (Generators.star n) in
  let s = Simulator.all_pairs rf in
  check_int "packets" (n * (n - 1)) s.Simulator.packets;
  check_int "all delivered" (n * (n - 1)) s.Simulator.delivered;
  let expected_hops = ((n - 1) * (n - 2) * 2) + (2 * (n - 1)) in
  check_int "total hops" expected_hops s.Simulator.total_hops;
  (* each leaf's inbound arc carries n-2 transit + 1 direct packets *)
  check_int "arc load" (n - 1) s.Simulator.max_arc_load

let test_random_pairs () =
  let st = rng () in
  let rf = tables (Generators.torus 4 4) in
  let s = Simulator.random_pairs st rf ~count:50 in
  check_int "injected" 50 s.Simulator.packets;
  check_int "delivered" 50 s.Simulator.delivered;
  check_true "mean delay sane"
    (Simulator.mean_delay s >= 1.0 && Simulator.mean_delay s < 100.0)

let test_round_limit_stops () =
  let rf = tables (Generators.path 50) in
  let s = Simulator.run ~round_limit:3 rf ~pairs:[ (0, 49) ] in
  check_int "not delivered" 0 s.Simulator.delivered

let test_delays_exceed_hops_under_contention () =
  let rf = tables (Generators.path 4) in
  let pairs = List.init 8 (fun _ -> (0, 3)) in
  let s = Simulator.run rf ~pairs in
  Array.iter
    (fun r ->
      check_true "delivered_at >= hops"
        (r.Simulator.delivered_at >= r.Simulator.hops))
    s.Simulator.results;
  check_true "last delivery delayed" (s.Simulator.rounds >= 3 + 7)


let test_permutation_traffic () =
  let st = rng () in
  let rf = tables (Generators.torus 4 4) in
  let s = Simulator.permutation_traffic st rf in
  check_true "most vertices send" (s.Simulator.packets >= 12);
  check_int "all delivered" s.Simulator.packets s.Simulator.delivered;
  (* each vertex sends at most one packet *)
  let sources = Array.map (fun r -> r.Simulator.src) s.Simulator.results in
  check_true "sources distinct"
    (Array.length sources
    = List.length (List.sort_uniq compare (Array.to_list sources)))

(* Golden digest over every traffic mode: 3 schemes x 6 graphs x 5
   seeds, each run's stats and per-packet results folded into one MD5.
   Recorded before the round engines were merged; any change to
   arbitration order, deflection or RNG consumption moves it. *)
let golden_fingerprint (s : Simulator.stats) =
  let b = Buffer.create 1024 in
  Printf.bprintf b "%d %d %d %d %d %d|" s.Simulator.packets
    s.Simulator.delivered s.Simulator.rounds s.Simulator.total_hops
    s.Simulator.max_queue s.Simulator.max_arc_load;
  Array.iter
    (fun r ->
      Printf.bprintf b "%d,%d,%d,%d;" r.Simulator.src r.Simulator.dst
        r.Simulator.hops r.Simulator.delivered_at)
    s.Simulator.results;
  Buffer.contents b

let golden_runs rf seed =
  let st = Random.State.make [| 0x51; seed |] in
  let g = rf.Routing_function.graph in
  let n = Graph.order g in
  let pairs =
    List.init (3 * n) (fun _ ->
        let u = Random.State.int st n in
        (u, (u + 1 + Random.State.int st (n - 1)) mod n))
  in
  let dead = [ (0, Graph.neighbor g 0 ~port:1) ] in
  List.map
    (fun run ->
      match run () with
      | s -> golden_fingerprint s
      | exception Invalid_argument msg -> "exn:" ^ msg)
    [ (fun () -> Simulator.all_pairs rf);
      (fun () -> Simulator.random_pairs st rf ~count:(2 * n));
      (fun () -> Simulator.permutation_traffic st rf);
      (fun () -> Simulator.run_flaky st ~loss:0.3 rf ~pairs);
      (fun () -> Simulator.run_with_dead_links ~dead rf ~pairs);
      (fun () -> Simulator.run_hot_potato st rf ~pairs);
      (fun () -> Simulator.run_hot_potato ~round_limit:4 st rf ~pairs) ]

let test_golden_digest () =
  let graphs =
    [ Generators.petersen (); Generators.torus 4 5; Generators.grid 4 4;
      Generators.hypercube 4;
      Generators.random_connected (Random.State.make [| 0x6A; 1 |]) ~n:14 ~m:24;
      Generators.barabasi_albert (Random.State.make [| 0x6A; 2 |]) ~n:16 ~m:2 ]
  in
  let schemes =
    [ Table_scheme.build; (fun g -> Interval_routing.build g);
      (fun g -> Landmark_scheme.build g) ]
  in
  let b = Buffer.create 65536 in
  List.iter
    (fun build ->
      List.iter
        (fun g ->
          let rf = (build g).Scheme.rf in
          for seed = 1 to 5 do
            List.iter (Buffer.add_string b) (golden_runs rf seed)
          done)
        graphs)
    schemes;
  Alcotest.(check string)
    "digest" "c978715248551eb464d06ecd552ca5fc"
    (Digest.to_hex (Digest.string (Buffer.contents b)))

let suite =
  [
    case "single packet" test_single_packet;
    case "no packets" test_no_packets;
    case "contention serializes" test_contention_serializes;
    case "all-pairs on a star" test_all_pairs_star;
    case "random pairs on torus" test_random_pairs;
    case "permutation traffic" test_permutation_traffic;
    case "round limit stops" test_round_limit_stops;
    case "delay >= hops under contention" test_delays_exceed_hops_under_contention;
    case "golden digest over all traffic modes" test_golden_digest;
    prop ~count:25 "all-pairs total-exchange delivers everything"
      arbitrary_connected_graph (fun g ->
        let s = Simulator.all_pairs (tables g) in
        let n = Graph.order g in
        s.Simulator.delivered = n * (n - 1));
    prop ~count:25 "simulated hops match route lengths without contention"
      arbitrary_connected_graph (fun g ->
        let rf = tables g in
        let s = Simulator.run rf ~pairs:[ (0, Graph.order g - 1) ] in
        s.Simulator.total_hops = Routing_function.route_length rf 0 (Graph.order g - 1));
  ]
