(* Quickstart: build a network, put a routing scheme on it, send a
   message, and read off the two quantities the paper is about -
   MEM_local and MEM_global.

   Run with: dune exec examples/quickstart.exe *)

open Umrs_graph
open Umrs_routing

let () =
  (* 1. A network: the Petersen graph (10 routers, 15 links). *)
  let g = Generators.petersen () in
  Format.printf "network: Petersen, n=%d, m=%d, diameter=%d@." (Graph.order g)
    (Graph.size g) (Bfs.diameter g);

  (* 2. A universal routing scheme: full shortest-path tables. *)
  let tables = Table_scheme.build g in

  (* 3. Route a message. The routing function is the paper's (I,H,P)
     triple: the header carries the destination address, and each
     router answers with a local output port. *)
  let trace = Routing_function.route tables.Scheme.rf 0 7 in
  Format.printf "route 0 -> 7: %a (%d hops, distance %d)@."
    (Format.pp_print_list
       ~pp_sep:(fun f () -> Format.pp_print_string f " -> ")
       Format.pp_print_int)
    trace.Routing_function.path trace.Routing_function.hops (Bfs.dist g 0 7);

  (* 4. Memory requirement, in exact bits of a decodable encoding. *)
  Format.printf "MEM_local(tables)  = %d bits, MEM_global = %d bits@."
    (Scheme.mem_local tables) (Scheme.mem_global tables);

  (* 5. Stretch factor: max over all pairs of route/distance. *)
  let s = Stretch_dist.exact tables.Scheme.rf in
  Format.printf "stretch factor = %.3f (mean %.3f)@." s.Stretch_dist.ds_max
    s.Stretch_dist.ds_mean;

  (* 6. Compare against interval routing, the compact scheme the paper
     cites for trees / outerplanar / circular-arc networks. *)
  let interval = Interval_routing.build g in
  Format.printf "MEM_local(interval) = %d bits, MEM_global = %d bits@."
    (Scheme.mem_local interval) (Scheme.mem_global interval);

  (* 7. And run it as an actual packet network: total exchange with
     one-packet-per-link-per-round contention. *)
  let stats = Simulator.all_pairs tables.Scheme.rf in
  Format.printf "total exchange: %a@." Simulator.pp_stats stats
