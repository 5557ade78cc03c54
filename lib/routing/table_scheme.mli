(** Full shortest-path routing tables — the universal scheme whose
    [O(n log n)]-bits-per-router cost Theorem 1 proves optimal for every
    stretch [s < 2].

    Each router [v] stores, for every destination, the local output port
    of a shortest-path next hop (ties broken toward the smallest port),
    [ceil(log2 deg v)] bits per entry.

    Every port comes from one rule, filled a destination at a time: one
    BFS rooted at the destination [v], then at every other vertex [u]
    the smallest port whose head is one step closer to [v]. No distance
    matrix is kept. *)

open Umrs_graph

val next_hop_matrix : Graph.t -> Graph.port array array
(** [m.(u).(v)] is the chosen shortest-path port at [u] toward [v]
    (0 on the diagonal), every column filled. Raises
    [Invalid_argument "Table_scheme: disconnected graph"] unless the
    graph is connected. *)

val build : Graph.t -> Scheme.built
(** Routing function + per-router table encodings, on demand. [build]
    checks connectivity and raises as {!next_hop_matrix} does, then
    allocates the table: one row of [n] ports per source, at most [n^2]
    ints, all 0. A destination's column is filled the first time a route
    or a [local_encoding] reads an entry of it that is still 0, by the
    rule above; until then 0 means "not yet filled". A Theorem-1
    instance, which reads the ports [a_i -> b_j] only, fills [q]
    columns.

    The built scheme is safe to share between domains (as
    {!Stretch_dist.sampled} does) with no lock: every fill of a column
    writes the same ports, so a racy read sees either 0, and refills the
    column with the same ports, or the final port. A fill searches on a
    BFS workspace its domain keeps for these fills (two arrays of the
    largest order it has filled), or on a fresh one while another
    thread of the domain is mid-fill. Routes and encodings equal those
    of a table filled up front (tested). *)

val scheme : Scheme.t
(** Named scheme ["routing-tables"], stretch bound 1. *)

val decode_table :
  Umrs_bitcode.Bitbuf.t -> order:int -> degree:int -> self:Graph.vertex -> Graph.port array
(** Decode a router's table back from its encoding: entry [v] is the
    port for destination [v] (self entry is 0). Round-trip tested. *)
