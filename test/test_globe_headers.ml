open Umrs_graph
open Umrs_routing
open Helpers

(* ---------- globe graphs (reference [8] worst cases) ---------- *)

let test_globe_structure () =
  let g = Generators.globe ~meridians:4 ~parallels:3 in
  check_int "order" 14 (Graph.order g);
  check_int "size" (4 * 4) (Graph.size g);
  check_int "pole degree" 4 (Graph.degree g 0);
  check_int "pole degree 2" 4 (Graph.degree g 1);
  check_true "connected" (Bfs.is_connected g);
  check_int "pole distance" 4 (Bfs.dist g 0 1)

let test_globe_single_parallel () =
  let g = Generators.globe ~meridians:3 ~parallels:1 in
  check_int "order" 5 (Graph.order g);
  check_int "pole distance" 2 (Bfs.dist g 0 1);
  check_int "theta-graph paths" 3 (Bfs.count_shortest_paths g 0 1)

let test_globe_interval_compactness_grows () =
  (* on globes, shortest-path interval routing needs more than one
     interval per arc at the poles - the [8] worst-case phenomenon *)
  let g = Generators.globe ~meridians:6 ~parallels:4 in
  let c = Interval_routing.compile ~labelling:Interval_routing.Dfs g in
  check_true "not 1-IRS" (Interval_routing.compactness c > 1);
  (* still a valid shortest-path routing *)
  check_true "stretch 1"
    (Routing_function.stretch_at_most (Interval_routing.build g).Scheme.rf
       ~num:1 ~den:1)

let test_globe_invalid () =
  check_true "needs >= 2 meridians"
    (try ignore (Generators.globe ~meridians:1 ~parallels:2); false
     with Invalid_argument _ -> true)

(* ---------- header accounting ---------- *)

let test_header_bits () =
  check_int "dest header" 5
    (Routing_function.header_bits ~order:20 (Routing_function.Dest 3));
  check_int "packed header" 3
    (Routing_function.header_bits ~order:20 (Routing_function.Packed [| 1; 1; 1 |]));
  check_true "packed grows with fields"
    (Routing_function.header_bits ~order:20 (Routing_function.Packed [| 255; 255 |])
     = 16)

let test_max_header_bits_tables () =
  let g = Generators.petersen () in
  let rf = (Table_scheme.build g).Scheme.rf in
  check_int "dest headers: ceil(log2 10)" 4 (Routing_function.max_header_bits rf)

let test_max_header_bits_landmark_larger () =
  (* landmark headers carry (dst, landmark index, dfs number): more bits
     than a plain destination - the cost MEM excludes *)
  let g = Generators.torus 4 4 in
  let tables = (Table_scheme.build g).Scheme.rf in
  let landmark = (Landmark_scheme.build g).Scheme.rf in
  check_true "landmark headers wider"
    (Routing_function.max_header_bits landmark
    > Routing_function.max_header_bits tables)

(* ---------- enumerate guard overflow ---------- *)

let test_guard_rejects_huge_spaces () =
  let rejects p q d =
    try
      ignore (Umrs_core.Enumerate.canonical_set ~p ~q ~d ());
      false
    with Invalid_argument _ -> true
  in
  check_true "5^36 rejected (used to overflow int)" (rejects 6 6 5);
  check_true "4^16 rejected" (rejects 4 4 4);
  check_true "2^24 rejected" (rejects 4 6 2);
  (* boundary: small spaces still enumerate *)
  check_true "2^9 accepted"
    (Umrs_core.Enumerate.count ~p:3 ~q:3 ~d:2 () > 0)

let suite =
  [
    case "globe structure" test_globe_structure;
    case "globe with one parallel (theta graph)" test_globe_single_parallel;
    case "globe breaks 1-IRS" test_globe_interval_compactness_grows;
    case "globe validation" test_globe_invalid;
    case "header_bits" test_header_bits;
    case "tables carry log n headers" test_max_header_bits_tables;
    case "landmark headers are wider" test_max_header_bits_landmark_larger;
    case "enumeration guard is overflow-safe" test_guard_rejects_huge_spaces;
    prop ~count:30 "globe poles are antipodal-ish"
      (QCheck.make ~print:(fun (m, p) -> Printf.sprintf "m=%d p=%d" m p)
         QCheck.Gen.(map (fun (m, p) -> (2 + (abs m mod 5), 1 + (abs p mod 5)))
                       (pair int int)))
      (fun (m, p) ->
        let g = Generators.globe ~meridians:m ~parallels:p in
        Bfs.dist g 0 1 = min (p + 1) (Bfs.diameter g)
        && Graph.order g = 2 + (m * p));
  ]
