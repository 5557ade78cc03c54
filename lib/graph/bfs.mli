(** Breadth-first search, distances, and shortest paths.

    All distances are hop counts (uniform arc costs, as in the paper).
    Unreachable vertices get distance [infinity = max_int]. *)

val infinity : int
(** Distance of unreachable vertices ([max_int]). *)

val distances : Graph.t -> Graph.vertex -> int array
(** [distances g src] is the array of hop distances from [src]. *)

val distances_with_parents : Graph.t -> Graph.vertex -> int array * int array
(** As [distances], also returning a BFS parent array ([-1] for the
    source and unreachable vertices). Parents follow smallest-port-first
    tie-breaking. *)

val port_toward : Graph.t -> int array -> Graph.vertex -> Graph.port
(** [port_toward g dist v] is the smallest port at [v] leading to a
    neighbour one hop closer, where [dist] holds hop distances to some
    target. [v] must not be at distance 0: there no port qualifies
    ([Invalid_argument]), or, where [-1] marks unreached vertices, a
    wrong one does. *)

val all_pairs : Graph.t -> int array array
(** [all_pairs g] is the full distance matrix ([n] BFS runs). *)

val dist : Graph.t -> Graph.vertex -> Graph.vertex -> int
(** One-off distance query (runs a BFS). *)

val shortest_path : Graph.t -> Graph.vertex -> Graph.vertex -> Graph.vertex list option
(** [shortest_path g u v] is a shortest path [u; ...; v] if any. *)

val eccentricity : Graph.t -> Graph.vertex -> int
(** Max distance from the vertex; [infinity] if the graph is
    disconnected. *)

val diameter : Graph.t -> int
(** Max eccentricity over all vertices; 0 for the empty/1-vertex graph. *)

val radius : Graph.t -> int
(** Min eccentricity over all vertices. *)

val center : Graph.t -> Graph.vertex
(** A vertex of minimum eccentricity (smallest index wins ties). *)

val bfs_tree : Graph.t -> Graph.vertex -> Graph.t
(** [bfs_tree g src] is the spanning BFS tree rooted at [src] as a graph
    on the same vertex set (requires [g] connected). Port order at each
    vertex: parent arc first, then children by increasing vertex id. *)

val count_shortest_paths : Graph.t -> Graph.vertex -> Graph.vertex -> int
(** Number of distinct shortest paths between two vertices (may be large
    but fits an [int] on the graph sizes used here). *)
