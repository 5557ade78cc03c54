(* Non-uniform link costs - the model extension of the schemes the
   paper cites as [1] and [2] ("allows non uniform cost on the arcs").

   Hop-count routing is blind to link costs; weighted shortest-path
   tables pay the same memory and route optimally. This example puts
   numbers on that difference.

   Run with: dune exec examples/weighted_costs.exe *)

open Umrs_graph
open Umrs_routing

let () =
  let st = Random.State.make [| 2026; 7 |] in
  Format.printf "%-22s %10s %14s %14s@." "graph (costs 1..9)" "local bits"
    "hop-stretch" "weighted-str.";
  List.iter
    (fun (name, g) ->
      let w = Weighted.random st ~max_cost:9 g in
      let weighted = Weighted_tables.build w in
      let hop = Table_scheme.build g in
      let sw = Weighted_tables.stretch w weighted.Scheme.rf in
      let sh = Weighted_tables.stretch w hop.Scheme.rf in
      Format.printf "%-22s %10d %14.3f %14.3f@." (name ^ " [weighted]")
        (Scheme.mem_local weighted) 1.0 sw.Stretch_dist.ds_max;
      Format.printf "%-22s %10d %14.3f %14.3f@." (name ^ " [hop-count]")
        (Scheme.mem_local hop)
        (Stretch_dist.exact hop.Scheme.rf).Stretch_dist.ds_max
        sh.Stretch_dist.ds_max)
    [
      ("torus 5x5", Generators.torus 5 5);
      ("random n=24", Generators.random_connected st ~n:24 ~m:60);
      ("petersen", Generators.petersen ());
    ];
  Format.printf
    "@.same bits, different metric: hop-count tables are weighted-stretch@.\
     suboptimal as soon as costs vary - the reason the cited schemes@.\
     handle weights explicitly.@."
