(** Hierarchical tree-cover routing (Awerbuch & Peleg, reference [2]) —
    the scheme behind Table 1's [s = O(log n)] row.

    For each scale [2^i] (up to the diameter), build a sparse cover
    ({!Umrs_graph.Cover}); every cluster carries a BFS tree of its
    induced subgraph, DFS-numbered for interval descent. A vertex's
    {e address} lists, per scale, its home cluster and its DFS number
    in that cluster's tree — the [O(log^2 n)]-bit labels the paper
    explicitly notes for this scheme. The sender picks the smallest
    scale at which it belongs to the destination's home cluster
    (guaranteed at scale [>= log2 dist]) and the packet follows the
    tree: up toward the root until the destination's DFS number falls
    into a child interval, then down.

    Route length is at most twice the cluster radius, i.e.
    [O(dist * log n)] — logarithmic stretch for polylogarithmic
    per-router memory, the regime's trademark tradeoff (measured, not
    assumed, by the benchmarks).

    The cluster trees are {!Landmark_core.tree}s, as packed as the
    landmark trees: one bounded search per cluster, [2|C| - 1] words,
    entries by rank in the cluster's sorted [members], found by binary
    search. Their 21-bit fields limit the order to [2^21 - 1]. *)

open Umrs_graph

type scale = private { cover : Cover.t; trees : Landmark_core.tree array (** per cluster *) }

val prepare : Graph.t -> scale array
(** One scale per [i] from [0] to [ceil (log2 diameter)]. Raises
    [Invalid_argument] naming the order past [2^21 - 1], before any
    search, then on a disconnected graph. *)

val build : Graph.t -> Scheme.built

val scheme : Scheme.t
(** ["tree-cover"]; no constant stretch bound (logarithmic). *)

val stretch_guarantee : Graph.t -> float
(** The provable bound for this graph:
    [4 * (log2 n + 2)] (choose scale [2^i < 2 dist], pay at most twice
    a cluster radius of [2^i (log2 n + 2)]). The measured stretch is
    checked against it in the tests. *)
