(** Shortest-path routing tables under non-uniform arc costs — the
    weighted counterpart of {!Table_scheme}, covering the "non-uniform
    cost" variants of Table 1's cited schemes.

    The routing function runs on the underlying graph; optimality and
    stretch are judged against the weighted metric. *)

open Umrs_graph

val next_hop_matrix : Weighted.t -> Graph.port array array
(** [m.(u).(v)] is a port at [u] whose arc starts a minimum-cost path
    toward [v] (smallest such port). *)

val build : Weighted.t -> Scheme.built

val stretch : Weighted.t -> Routing_function.t -> Stretch_dist.summary
(** Exact distribution of routed cost over weighted distance, over all
    ordered pairs. *)

val stretch_at_most :
  Weighted.t -> Routing_function.t -> num:int -> den:int -> bool
