(** Finite connected symmetric digraphs with locally labelled output
    ports — the network model of Fraigniaud & Gavoille (1996).

    Vertices are integers [0 .. n-1]. Each vertex [v] has [degree g v]
    output ports labelled [1 .. degree g v] (1-based, as in the paper);
    port [k] of [v] leads to the neighbour [neighbor g v ~port:k]. Every
    edge [{u,v}] is represented by the two symmetric arcs [(u,v)] and
    [(v,u)], each with its own local port label. Graphs are simple (no
    loops, no multi-edges). *)

type t

type vertex = int
type port = int (** 1-based local output-port label. *)

(** {1 Construction} *)

val of_edges : n:int -> (vertex * vertex) list -> t
(** [of_edges ~n edges] builds the graph on [n] vertices with the given
    undirected edges. Port labels at each vertex follow the order in
    which its incident edges appear in [edges]. Raises
    [Invalid_argument] on loops, duplicate edges, or out-of-range
    endpoints. *)

val of_adjacency : vertex array array -> t
(** [of_adjacency adj] takes [adj.(v)] = neighbours of [v] in port order
    (index [k] = port [k+1]). Validates simplicity and symmetry. *)

val empty : int -> t
(** [empty n] is the edgeless graph on [n] vertices (not connected for
    [n > 1]; useful as a builder seed). *)

(** {1 Accessors} *)

val order : t -> int
(** Number of vertices, [n]. *)

val size : t -> int
(** Number of (undirected) edges. *)

val degree : t -> vertex -> int
val max_degree : t -> int

val neighbor : t -> vertex -> port:port -> vertex
(** [neighbor g v ~port] is the head of the arc leaving [v] on [port].
    Raises [Invalid_argument] if [port] is not in [1 .. degree g v]. *)

val neighbors : t -> vertex -> vertex array
(** The neighbours of [v] in port order: the graph's own adjacency row,
    shared, not a copy. Do not mutate it; copy it first to sort or
    edit. Reading it in place is what keeps a BFS from allocating per
    vertex. *)

val port_to : t -> src:vertex -> dst:vertex -> port option
(** The local port of [src] whose arc leads to [dst], if adjacent. *)

val mem_edge : t -> vertex -> vertex -> bool

val iter_arcs : t -> (vertex -> port -> vertex -> unit) -> unit
(** [iter_arcs g f] calls [f u k v] for every arc: [v] is on port [k]
    of [u]. Each edge is visited twice, once per direction. *)

val edges : t -> (vertex * vertex) list
(** Each undirected edge once, as [(u, v)] with [u < v]. *)

val fold_vertices : t -> ('a -> vertex -> 'a) -> 'a -> 'a

(** {1 Transformations} *)

val relabel_ports : t -> Perm.t array -> t
(** [relabel_ports g perms]: [perms.(v)] is a permutation of
    [{0 .. degree g v - 1}]; the neighbour previously on (0-based) port
    index [k] of [v] moves to port index [perms.(v).(k)]. Vertex names
    are unchanged. *)

val permute_vertices : t -> Perm.t -> t
(** [permute_vertices g p] renames vertex [v] to [p.(v)], preserving
    each vertex's port order. *)

val attach_path : t -> anchor:vertex -> len:int -> t
(** [attach_path g ~anchor ~len] appends a fresh path of [len] vertices
    [n, n+1, ..., n+len-1], connecting [anchor] to vertex [n]. The new
    arc gets the last port of [anchor]. Used by Theorem 1 to pad a graph
    of constraints to order exactly [n]. *)

val disjoint_union : t -> t -> t
(** Vertices of the second graph are shifted by [order] of the first. *)

val add_edge : t -> vertex -> vertex -> t
(** Functional edge addition; the new arc gets the last port at each
    endpoint. Raises [Invalid_argument] on loops / duplicates. *)

(** {1 Predicates} *)

val equal : t -> t -> bool
(** Structural equality including port labels. *)

val pp : Format.formatter -> t -> unit
(** Multi-line dump: one line per vertex with its port-ordered
    neighbour list. *)
