(** Landmark-based universal compact routing with worst-case stretch 3
    (Cowen / Thorup-Zwick style).

    This stands in for the hierarchical schemes cited in Table 1 for
    stretch [s >= 3] (Awerbuch et al.; Awerbuch & Peleg; Peleg & Upfal):
    sublinear local memory at the price of bounded stretch. Like the
    scheme of reference [3] in the paper, it is a {e labelled} scheme —
    headers carry an [O(log n)]-bit address [(id, landmark index, DFS
    number in the landmark's BFS tree)].

    Construction, for a landmark set [L] chosen by a {!strategy}:
    - every router stores, toward each landmark, its smallest port one
      step closer (Cowen's rule);
    - router [u] additionally stores a direct port for every [w] with
      [dist(u,w) < dist(w,L)] (the "cluster" entries);
    - every router stores, in each landmark's BFS tree, one DFS interval
      per child arc, enabling descent from the landmark to the target.

    Everything but the landmark choice and the first rule is shared with
    {!Tz_scheme} through {!Landmark_core}, which states the routing rule
    and the stretch-3 argument. *)

open Umrs_graph

val default_landmark_count : int -> int
(** [ceil(sqrt(n * (1 + log2 n)))] clamped to [1..n] — balances the
    landmark-port cost against the expected cluster size. *)

type strategy =
  | Random_landmarks   (** uniform sample (Cowen's analysis) *)
  | High_degree        (** the [l] largest-degree vertices *)
  | K_center           (** greedy farthest-point (2-approx k-center) *)

type data = Landmark_core.t
(** The prepared per-graph state, read through {!Landmark_core}. *)

val prepare :
  ?seed:int -> ?landmarks:int -> ?strategy:strategy -> Graph.t -> data
(** The landmark set chosen by [strategy] (default [Random_landmarks],
    drawn from [seed], default 0xC0C0A), precomputed on a non-empty
    connected graph. *)

val build :
  ?seed:int -> ?landmarks:int -> ?strategy:strategy -> Graph.t -> Scheme.built
(** {!prepare}, then the router and its bits. *)

val scheme : Scheme.t
(** ["landmark-3"] with default parameters; stretch bound 3. *)

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
