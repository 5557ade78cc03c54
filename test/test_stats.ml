(* Summary statistics through Umrs_bench.Quantile, the one percentile
   implementation: its oracle properties live in test_bench.ml; these
   cases pin the summary line and the simulator's use of it. *)

open Umrs_graph
open Helpers
module Q = Umrs_bench.Quantile

let xs () = Q.of_array [| 5.0; 1.0; 3.0; 2.0; 4.0 |]

let test_mean_stddev () =
  Alcotest.(check (float 1e-9)) "mean" 3.0 (Q.mean (xs ()));
  Alcotest.(check string)
    "singleton sd"
    "n=1 mean=7.00 sd=0.00 min=7.00 p50=7.00 p99=7.00 max=7.00"
    (Q.summary (Q.of_array [| 7.0 |]))

let test_percentiles () =
  Alcotest.(check (float 1e-9)) "median" 3.0 (Q.p50 (xs ()));
  Alcotest.(check (float 1e-9)) "p0 is min" 1.0 (Q.value (xs ()) 0.0);
  Alcotest.(check (float 1e-9)) "p100 is max" 5.0 (Q.value (xs ()) 100.0);
  Alcotest.(check (float 1e-9)) "p20" 1.0 (Q.value (xs ()) 20.0)

let test_minmax () =
  Alcotest.(check (float 1e-9)) "min" 1.0 (Q.min (xs ()));
  Alcotest.(check (float 1e-9)) "max" 5.0 (Q.max (xs ()))

let test_empty_raises () =
  check_true "empty sample raises"
    (try ignore (Q.of_array [||]); false with Invalid_argument _ -> true)

let test_summary_string () =
  Alcotest.(check string)
    "summary" "n=5 mean=3.00 sd=1.58 min=1.00 p50=3.00 p99=5.00 max=5.00"
    (Q.summary (xs ()))

let test_simulator_delays () =
  let g = Generators.path 5 in
  let rf = (Umrs_routing.Table_scheme.build g).Umrs_routing.Scheme.rf in
  let s = Umrs_routing.Simulator.run rf ~pairs:[ (0, 4); (4, 0) ] in
  let d = Umrs_routing.Simulator.delays s in
  check_int "two delays" 2 (Array.length d);
  Alcotest.(check string)
    "summary renders"
    "n=2 mean=4.00 sd=0.00 min=4.00 p50=4.00 p99=4.00 max=4.00"
    (Umrs_routing.Simulator.delay_summary s);
  Alcotest.(check string)
    "no deliveries" "(no deliveries)"
    (Umrs_routing.Simulator.delay_summary
       (Umrs_routing.Simulator.run rf ~pairs:[]))

let float_array_arb =
  QCheck.make
    ~print:(fun a -> String.concat ";" (List.map string_of_float (Array.to_list a)))
    QCheck.Gen.(map (fun l -> Array.of_list (List.map float_of_int l))
                  (list_size (int_range 1 50) (int_range (-100) 100)))

let suite =
  [
    case "mean/stddev" test_mean_stddev;
    case "percentiles" test_percentiles;
    case "min/max" test_minmax;
    case "empty input raises" test_empty_raises;
    case "summary" test_summary_string;
    case "simulator delay stats" test_simulator_delays;
    prop "median between min and max" float_array_arb (fun a ->
        let q = Q.of_array a in
        Q.min q <= Q.p50 q && Q.p50 q <= Q.max q);
    prop "percentile monotone in p" float_array_arb (fun a ->
        let q = Q.of_array a in
        Q.value q 25.0 <= Q.value q 75.0);
  ]
