(* The space / efficiency tradeoff that motivates the whole compact-
   routing line of work (Peleg & Upfal's title!), measured on real
   schemes: how many bits does each router pay, and what stretch does
   it buy, across network families?

   Also runs the packet-level simulator to show that stretch is not the
   whole story: longer routes also mean more congestion.

   Run with: dune exec examples/tradeoff_tour.exe *)

open Umrs_graph
open Umrs_routing

let schemes =
  [
    Table_scheme.scheme;
    Interval_routing.scheme;
    Landmark_scheme.scheme;
    Spanner_scheme.scheme ~k:2;
    Spanner_scheme.scheme ~k:3;
  ]

let () =
  let st = Random.State.make [| 2026 |] in
  let families =
    [
      ("hypercube(32)", Generators.hypercube 5);
      ("torus 6x6", Generators.torus 6 6);
      ("random dense n=32", Generators.random_connected st ~n:32 ~m:200);
      ("random tree n=32", Generators.random_tree st 32);
    ]
  in
  Format.printf "%-20s %-16s %8s %10s %8s@." "graph" "scheme" "local"
    "global" "stretch";
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun scheme ->
          let e = Scheme.evaluate scheme ~graph_name:gname g in
          Format.printf "%-20s %-16s %8d %10d %8.3f@." gname
            e.Scheme.scheme_name e.Scheme.mem_local_bits
            e.Scheme.mem_global_bits e.Scheme.stretch.Stretch_dist.ds_max)
        schemes;
      Format.printf "@.")
    families;

  (* congestion: the price of stretch under load *)
  Format.printf "congestion under random traffic (torus 6x6, 200 packets):@.";
  let g = Generators.torus 6 6 in
  List.iter
    (fun scheme ->
      let b = scheme.Scheme.build g in
      let stats =
        Simulator.random_pairs (Random.State.make [| 7; 7 |]) b.Scheme.rf
          ~count:200
      in
      Format.printf "  %-16s rounds=%3d mean_delay=%6.2f max_arc_load=%3d@."
        scheme.Scheme.name stats.Simulator.rounds (Simulator.mean_delay stats)
        stats.Simulator.max_arc_load)
    schemes;
  Format.printf
    "@.shorter tables <-> longer routes <-> busier links: the tradeoff the@.\
     paper's Table 1 quantifies in bits.@."
