(** Two-level hierarchical (cluster) routing in the style of Kleinrock
    & Kamoun — the ancestor of the hierarchical schemes cited in
    Table 1.

    Vertices are partitioned into BFS balls of radius [r] around
    greedily chosen centers. A router [x] stores (a) a port toward every
    cluster {e center} and (b) a port toward every vertex within
    distance [2r] of [x] (its "ball" entries): about
    [#clusters + ball size] entries instead of [n]. Headers carry
    [(destination, its cluster)]. A packet heads for the destination's
    cluster center until the destination enters the current router's
    ball, then descends on exact entries.

    Delivery is guaranteed: phase 1 strictly decreases the distance to
    the target's center, and the center's ball contains the target
    (distance [<= r <= 2r]); in phase 2 the distance to the target
    strictly decreases, and [dist(y, v) < dist(x, v) <= 2r] keeps the
    target inside every subsequent ball. Worst-case stretch is bounded
    only through [r]; the benchmarks measure it (the compromise
    Table 1's hierarchical rows quantify). *)

open Umrs_graph

val partition : radius:int -> Graph.t -> int array * Graph.vertex array
(** [partition ~radius g] returns [(cluster_of, centers)]:
    [cluster_of.(v)] is the cluster index of [v] and [centers.(c)] its
    center. Greedy: the smallest unassigned vertex becomes a center and
    claims all unassigned vertices within [radius]. *)

val default_radius : Graph.t -> int
(** Smallest radius from 1 whose partition has at most [ceil(sqrt n)]
    clusters, and at most vertex 0's eccentricity: there vertex 0, the
    first center, claims every vertex. One search finds that stop. *)

val build : ?radius:int -> Graph.t -> Scheme.built

val scheme : Scheme.t
(** ["hierarchical"] with the default radius; no stretch guarantee. *)
