(** The Thorup–Zwick universal compact routing scheme for stretch 3
    ("Compact routing schemes", SPAA 2001, with k = 2 levels) — the
    concrete nearly-memory-optimal point on the paper's stretch-3 row,
    and the scheme whose *average* stretch collapses to ~1.1 on
    Internet-like power-law graphs (Krioukov, Fall & Yang).

    Construction, seeded for deterministic replay:
    - sample a landmark set [A] with Bernoulli rate [~ n^(-1/2)]
      (expected [sqrt n] landmarks);
    - [p(v)] is the landmark nearest to [v], smallest id on ties, and
      [d(v,A) = d(v, p(v))];
    - the {e bunch} [B(v) = { w : d(v,w) < d(v,A) }], excluding [v];
    - the {e cluster} table at [x] stores a shortest-path port for every
      destination [v] with [d(x,v) < d(v,A)]; by definition
      [w ∈ B(v) ⇔ v ∈ C(w)] (the tables and bunches are transposes);
    - every vertex also stores, per landmark BFS tree, its parent port
      and one DFS interval per child arc.

    Everything but the sample and the parent-port rule is shared with
    {!Landmark_scheme} through {!Landmark_core}, which states the
    routing rule (handshake-free: the header is
    [(v, index of p(v), DFS number of v in p(v)'s tree)]) and the
    stretch-3 argument. *)

open Umrs_graph

val default_rate : int -> float
(** [1 / sqrt n] — expected [sqrt n] landmarks, balancing the
    [~sqrt n] expected cluster size against the per-tree state. *)

type data = Landmark_core.t
(** The prepared per-graph state (landmarks, bunches/clusters, trees),
    read through {!Landmark_core}. *)

val prepare : ?seed:int -> ?rate:float -> Graph.t -> data
(** Sample and precompute on a non-empty connected graph. [seed]
    defaults to a fixed constant (builds are reproducible); [rate]
    defaults to {!default_rate} and must lie in [(0, 1]]. An empty
    sample falls back to the single landmark [{0}]. *)

val build : ?seed:int -> ?rate:float -> Graph.t -> Scheme.built

val scheme : Scheme.t
(** ["tz-3"] with default parameters; stretch bound 3. *)

(** {1 Decoding} *)

type decoded = Landmark_core.decoded = {
  dec_order : int;
  dec_self : Graph.vertex;
  dec_up_ports : int array;
  dec_cluster : (Graph.vertex * Graph.port) array;
  dec_children : (Graph.port * int * int) array array;
}

val decode_vertex : Umrs_bitcode.Bitbuf.t -> degree:int -> decoded
(** Inverse of the per-router encoding ({!Landmark_core.decode_vertex}). *)
