(** Landmark routing with stretch 3: the construction, router and bit
    encoding shared by Cowen's landmark scheme ({!Landmark_scheme},
    ["landmark-3"]) and Thorup–Zwick with [k = 2] ({!Tz_scheme},
    ["tz-3"]).

    The two schemes differ in two places only: how the landmark set [A]
    is chosen, and which port a router stores toward each landmark (the
    {!up} rule). Everything else is here. For a landmark set [A]:
    - one BFS per landmark [ℓ] gives [d(·, ℓ)], a BFS tree (its
      first-discoverer parents and the ports they found their children
      through, {!Umrs_graph.Bfs.parent_port_array}) and the port the
      {!up} rule picks at every other vertex;
    - the home [p(v)] is the landmark nearest to [v], smallest index on
      ties, and [d(v,A) = d(v, p(v))];
    - the cluster table at [x] stores, for every destination [v] with
      [0 < d(x,v) < d(v,A)], the smallest port one step closer to [v]:
      the {!Ball_table} of radius [d(v,A)], one bounded search per
      destination, so the tables cost [O(Σ|C| + |A|·m)] to build rather
      than [Θ(n²)];
    - in each landmark tree every vertex stores, per child arc in port
      order, the DFS interval [lo, hi] of the child's subtree. A
      vertex's children are queued in port order while it is expanded,
      and vertices are expanded in queue order, so one walk of the BFS
      visit order bottom-up gives the subtree sizes and child counts,
      and one top-down puts each child into its parent's next slot, in
      port order, with its DFS interval and its up port. No adjacency
      row is scanned for children: a tree costs its BFS plus [O(n)],
      and the up ports one row scan per vertex.

    In memory every table is a flat int array; no vertex has a block
    of its own. A tree is two arrays of packed words, [2n - 1] words in
    all. One word per vertex holds three 21-bit fields: its DFS
    number, the index of its first child entry and its up port. One
    word per child entry, in port order, holds the last DFS number of
    the child's subtree and the port to it. A vertex's children are
    the entries from its first to the next vertex's first (to [n - 1]
    after the last vertex). The children's subtrees tile
    [(dfs x, last x]], so [lo] is never stored: the eldest child's is
    [dfs x + 1], each next one the previous [hi + 1]. 21-bit fields
    limit the order to [2^21 - 1] vertices. The cluster tables are the
    {!Ball_table}'s one CSR over all vertices. The router
    binary-searches a cluster slice, then scans a slice of child
    words. This layout is not the bit layout of {!encode_vertex},
    which writes every [(port, lo, hi)].

    Routing [u -> v], header [(v, index of p(v), DFS number of v in
    p(v)'s tree)], at each vertex [x]: deliver if [x = v]; else take
    the cluster port if [x]'s table holds [v]; else descend into the
    child whose interval contains [v] in [p(v)]'s tree; else take the
    stored port toward [p(v)].

    Stretch [<= 3]. A cluster port leads to a vertex closer to [v],
    whose table holds [v] too, so a cluster hit is followed by a
    shortest path. Without a hit at the source, [d(u,v) >= d(v,A)], and
    the route climbs toward [p(v)] and descends its tree for at most
    [d(u, p(v)) + d(p(v), v) <= d(u,v) + 2 d(v,A) <= 3 d(u,v)] hops;
    a cluster hit on the way only shortens the tail. This needs only
    that each stored port toward [ℓ] leads one step closer to [ℓ]. *)

open Umrs_graph

(** The port every vertex but the landmark stores toward it. Each rule
    picks a port that leads one step closer to the landmark, which is
    all the stretch argument needs; they differ where a vertex has
    several neighbours one step closer, and so do the two schemes'
    bits. The landmark itself stores [0]. *)
type up =
  | Parent  (** the port to the vertex's BFS-tree parent (tz-3) *)
  | Smallest_closer
      (** the smallest port to a neighbour one step closer
          (landmark-3; {!Umrs_graph.Bfs.port_toward}) *)

(** {1 DFS-interval trees}

    The one DFS-interval tree of [lib/routing], laid out as above (an
    entry where a landmark tree has a vertex); it also serves
    {!Tree_cover_scheme}'s cluster trees. *)

type tree

val max_order : int
(** [2^21 - 1], the largest order a tree's 21-bit fields hold. *)

val tree :
  Graph.t -> up:up -> Bfs.workspace -> slot:int array -> size:int array -> off:int array -> tree
(** The BFS tree of [ws]'s last search on [g], run with [~parents:true],
    over the vertices it reached: entry [slot.(v)] for vertex [v], one
    to one onto [0 .. reached - 1] (the identity for a landmark tree,
    the rank in {!Umrs_graph.Cover}'s sorted [members] for a cluster),
    up ports by the [up] rule. [size] and [off] are scratch of at least
    [reached] ints, reused across trees. *)

val dfs_number : tree -> int -> int
val up_port : tree -> int -> Graph.port
(** An entry's DFS number and port toward the root, both [0] at the
    root. *)

val child_port : tree -> int -> dfs:int -> Graph.port option
(** The port to an entry's child whose subtree holds DFS number [dfs],
    if any. *)

val children : tree -> int -> (Graph.port * int * int) array
(** An entry's children in port order: the port to each and the DFS
    interval [(lo, hi)] of its subtree. *)

(** {1 Landmark routing} *)

type t

val prepare : Graph.t -> landmarks:int array -> up:up -> t
(** Precompute on a non-empty connected graph of at most [2^21 - 1]
    vertices. [landmarks] must be non-empty, strictly increasing and
    in range. Raises [Invalid_argument] naming the problem otherwise:
    the order before any search, the landmark set next, and a
    disconnected graph from the first landmark's search. *)

val landmarks : t -> int array
(** The landmark set [A], sorted ascending (a copy). *)

val home : t -> Graph.vertex -> int
(** Index into {!landmarks} of [p(v)]. *)

val dist_to_landmarks : t -> Graph.vertex -> int
(** [d(v, A)]; [0] iff [v] is a landmark. *)

val bunch : t -> Graph.vertex -> int array
(** [B(v) = { w ≠ v : d(v,w) < d(v,A) }], sorted. Recomputed by a fresh
    bounded BFS, so tests can check the transpose
    [w ∈ B(v) ⇔ v ∈ C(w)] against {!cluster_members}. *)

val cluster_members : t -> Graph.vertex -> int array
(** Destinations in [x]'s stored cluster table, sorted (a copy of its
    slice). *)

val routing_function : t -> Routing_function.t

val encode_vertex : t -> Graph.vertex -> Umrs_bitcode.Bitbuf.t
(** [n] in delta code, [v] fixed-width, [|A|] in gamma, the port toward
    each landmark (fixed-width, [0] at the landmark itself), the cluster
    table as a gamma count plus [(destination, port)] pairs, and per
    landmark tree a gamma count plus [(port, lo, hi)] per child. The
    bits are {!encode_words}' words appended in order, one
    {!Umrs_bitcode.Bitbuf.add_bits} per word. *)

val encode_words : t -> Graph.vertex -> (int -> width:int -> unit) -> unit
(** [encode_words d v emit] passes the bits of [encode_vertex d v] to
    [emit], a packed word per call, most significant bit first:
    consecutive fields (gamma and delta codes included) go into one
    word while it stays within 55 bits, the most
    {!Umrs_bitcode.Bitbuf.add_bits} writes with one word access. A
    gamma code wider than that is split after its zero; a field wider
    than 55 bits goes out alone, which takes [n > 2^55]. The
    per-field cost is a shift and an OR, not a call. *)

(** {1 Decoding} *)

type decoded = {
  dec_order : int;
  dec_self : Graph.vertex;
  dec_up_ports : int array;
      (** per landmark: the stored port toward it, 0 at the landmark *)
  dec_cluster : (Graph.vertex * Graph.port) array;
  dec_children : (Graph.port * int * int) array array;
      (** per landmark tree: (port, dfs lo, dfs hi) per child *)
}

val decode_vertex : Umrs_bitcode.Bitbuf.t -> degree:int -> decoded
(** Inverse of {!encode_vertex} (round-trip tested): everything a router
    stores is recoverable from its bits plus its degree. *)
