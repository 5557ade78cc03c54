(** Machine verification that a matrix really constrains a graph
    (Definition 1), by exhaustive path analysis.

    An out-arc of [src] on port [k] is {e usable} for [dst] at stretch
    bound [s = num/den] when some routing path through it meets the
    bound, i.e. [den * (1 + dist(head, dst)) <= num * dist(src, dst)]
    ([<] when [strict], modelling the open bound [s < 2] of Lemma 2).
    [M] is a matrix of constraints iff for every [(i,j)] the usable set
    for [(a_i, b_j)] is exactly [{m_ij}]. *)

open Umrs_graph

type stretch_bound = { num : int; den : int; strict : bool }

val shortest_paths_only : stretch_bound
(** [1/1], non-strict: usable = first arcs of shortest paths. *)

val below_two : stretch_bound
(** [2/1], strict: the Lemma 2 regime (every [s < 2]). *)

val usable_ports :
  Graph.t -> dist:int array array -> src:Graph.vertex -> dst:Graph.vertex ->
  bound:stretch_bound -> Graph.port list
(** All usable out-ports of [src] for [dst], ascending. *)

type violation = {
  row : int;                  (** [i], 0-based *)
  col : int;                  (** [j], 0-based *)
  expected : Graph.port;      (** [m_ij] *)
  usable : Graph.port list;   (** what the graph actually forces *)
}

val check :
  Graph.t ->
  constrained:Graph.vertex array ->
  targets:Graph.vertex array ->
  Matrix.t ->
  bound:stretch_bound ->
  (unit, violation list) result
(** All [(i,j)] pairs; [Ok ()] when the forced-port property holds
    everywhere, else every failing cell in row-major order. The graph
    is undirected, so one BFS from each target [b_j] gives every
    distance the cells need: [q] searches, not all pairs. A cell
    counts its usable ports in [a_i]'s row and builds the [usable]
    list only for a violation. Raises as {!usable_ports} does. *)

val check_cgraph : Cgraph.t -> bound:stretch_bound -> (unit, violation list) result
(** {!check} applied to a graph of constraints and its own matrix. *)

val forced_fraction : Cgraph.t -> bound:stretch_bound -> float
(** Fraction of [(i,j)] pairs whose usable set is the singleton
    [{m_ij}] — 1.0 below stretch 2 by Lemma 2, degrading above (the
    conclusion's open-problem ablation). *)
