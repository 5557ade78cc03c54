(** Breadth-first search, distances, and shortest paths.

    All distances are hop counts (uniform arc costs, as in the paper).
    Unreachable vertices get distance [infinity = max_int].

    Every search in this module runs one kernel ({!search}): an
    array-backed FIFO queue that reads the graph's own adjacency rows
    ({!Graph.neighbors}) in port order, so it allocates nothing per
    vertex or arc. Parents are the first discoverer in port order. The
    one exception is the point-to-point distance ({!distance_between},
    {!dist}), a bidirectional search on the same rows that stops where
    its two sides meet. *)

val infinity : int
(** Distance of unreachable vertices ([max_int]). *)

(** {1 The kernel} *)

type workspace
(** Reusable state for one search at a time: a distance array,
    optional parent and parent-port arrays, and the queue. Callers
    that run many BFSs reuse one workspace; a warm search allocates
    nothing. Starting a search first resets what the previous one
    wrote, which costs O(vertices it reached), not O(n), so many small
    bounded searches stay cheap on a large graph. The arrays grow to
    the largest order searched, so one workspace serves graphs of any
    order. A workspace is single-threaded: share nothing across
    domains. *)

val workspace : unit -> workspace
(** An empty workspace; the first search sizes it. *)

val search :
  ?parents:bool -> ?radius:int -> workspace -> Graph.t -> Graph.vertex -> unit
(** [search ws g src] runs a BFS from [src] on [ws], replacing the
    previous search's results. With [~parents:true] it also records
    each vertex's BFS parent and the port at the parent it was found
    through ({!parent_port_array}); without, the loop writes neither
    array. With [~radius] ([>= 1]) it reaches exactly the vertices at
    distance [< radius], expanding none at distance [radius - 1].
    Raises [Invalid_argument] on a bad source or radius. *)

val reached : workspace -> int
(** How many vertices the last search reached. *)

val visit_order : workspace -> int array
(** The last search's queue: its first {!reached} entries are the
    vertices it reached in visit order, [src] first, distances
    nondecreasing. Shared, valid until the next search; do not mutate
    it. *)

val dist_array : workspace -> int array
(** The last search's distances, [infinity] at every vertex it did not
    reach. Shared, valid until the next search; do not mutate it. Its
    length is at least the graph's order. *)

val parent_array : workspace -> int array
(** The last search's BFS parents, [-1] at the source and at every
    vertex it did not reach. Shared like {!dist_array}. Raises
    [Invalid_argument] unless that search ran with [~parents:true]. *)

val parent_port_array : workspace -> int array
(** The last search's parent ports: at every vertex [y] it reached
    other than the source, the port at [parent.(y)] through which the
    search found [y], so [Graph.neighbor g parent.(y) ~port] is [y];
    [0] wherever {!parent_array} reads [-1]. A vertex's children are
    found while it is expanded, in port order, so a BFS tree's child
    arcs come out of one search without scanning a row for them.
    Shared like {!dist_array}; raises as {!parent_array} does. *)

val distances_with : workspace -> Graph.t -> Graph.vertex -> int array
(** [distances_with ws g src] is [distances g src] computed on [ws]: a
    fresh array of length [order g], but no queue allocated. *)

(** {1 Point-to-point distance} *)

type pair_workspace
(** Reusable state for one point-to-point search at a time: per side a
    distance array and a queue. Like a {!workspace} it resets in
    O(vertices the last search reached), grows to the largest order
    searched and is single-threaded; a search on a warm pair workspace
    allocates nothing. *)

val pair_workspace : unit -> pair_workspace
(** An empty pair workspace; the first search sizes it. *)

val distance_between : pair_workspace -> Graph.t -> Graph.vertex -> Graph.vertex -> int
(** [distance_between pw g u v] is the hop distance from [u] to [v]
    ([infinity] if [v] is unreachable, [0] if [u = v]), by a
    bidirectional BFS: a search from [u] and one from [v] take turns,
    each turn expanding one whole level of the side whose frontier has
    fewer arcs (the sum of its degrees). The first arc from the
    expanding side into a vertex the other side has reached ends the
    search, and the distance is exact: until that level the two balls
    were disjoint, so [d(u,v)] is at least the expanding side's new
    level plus the other side's level, and that arc closes a walk of
    exactly that length. A side whose level reaches nothing new has
    exhausted its component: [infinity].

    Cost: the arcs the two balls scan ({!scanned}), never more than
    the [2m] of one full BFS, since each vertex is expanded by at most
    one side. On graphs of small diameter that is a small share: over
    2,000 seeded pairs of a seeded Barabasi-Albert graph (m = 2), 57
    of 7,994 arcs at n = 2,000 and 403 of 399,994 at n = 10^5. On a
    path or grid both balls grow to half the distance (1,992 of 6,240
    arcs on a 40x40 grid), so a full {!search} from [u] serves several
    destinations more cheaply. Raises [Invalid_argument] on a bad
    vertex. *)

val scanned : pair_workspace -> int
(** The arcs the last {!distance_between} on this workspace scanned
    ([0] when [u = v]): its work, comparable with the [2 * size g] arcs
    of one full {!search}. *)

(** {1 One-off searches} *)

val distances : Graph.t -> Graph.vertex -> int array
(** [distances g src] is the array of hop distances from [src]. *)

val distances_with_parents : Graph.t -> Graph.vertex -> int array * int array
(** As [distances], also returning a BFS parent array ([-1] for the
    source and unreachable vertices). A vertex's parent is its first
    discoverer, ports scanned in order. *)

val port_toward : Graph.t -> int array -> Graph.vertex -> Graph.port
(** [port_toward g dist v] is the smallest port at [v] leading to a
    neighbour one hop closer, where [dist] holds hop distances to some
    target. [v] must not be at distance 0: there no port qualifies
    ([Invalid_argument]), or, where [-1] marks unreached vertices, a
    wrong one does. *)

val all_pairs : Graph.t -> int array array
(** [all_pairs g] is the full distance matrix ([n] BFS runs on one
    workspace). *)

val dist : Graph.t -> Graph.vertex -> Graph.vertex -> int
(** One-off distance query: {!distance_between} on a fresh
    {!pair_workspace}, which allocates four arrays of [order g] and
    scans only the two balls. Raises [Invalid_argument] on a bad
    vertex. *)

val shortest_path : Graph.t -> Graph.vertex -> Graph.vertex -> Graph.vertex list option
(** [shortest_path g u v] is a shortest path [u; ...; v] if any. *)

val is_connected : Graph.t -> bool
(** One search from vertex 0 reaches every vertex; true on 0 or 1
    vertex. *)

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
