(** Ball tables: at every router [x], for every destination [v] with
    [0 < d(x,v) < radius.(v)], the smallest port at [x] one step closer
    to [v].

    One construction serves two schemes: the cluster tables of tz-3 and
    landmark-3 ({!Landmark_core}, [radius.(v) = d(v,A)]) and the balls
    of hierarchical routing ({!Hierarchical_scheme}, [radius.(v) =
    2r + 1]). For each destination whose radius exceeds 1 it runs one
    bounded {!Umrs_graph.Bfs.search}, which reaches exactly the ball
    [d(v,·) < radius.(v)] and resets the workspace in [O(|ball|)]. So
    the tables cost [O(Σ entries + Σ arcs the balls scan)], never an
    [n]-array per destination. *)

open Umrs_graph

type t = private {
  off : int array;
      (** [n + 1] offsets: router [x]'s entries are
          [off.(x) .. off.(x + 1) - 1] *)
  dst : int array;  (** per entry its destination, ascending within a router *)
  port : int array;  (** per entry the smallest port one step closer to [dst] *)
}
(** One CSR over all routers. The balls are walked in increasing
    destination order and the entries counting-sorted stably by router,
    so each router's slice is sorted by destination. The encoders read
    the fields directly. *)

val build : Bfs.workspace -> Graph.t -> radius:int array -> t
(** [build ws g ~radius] searches on [ws], replacing its last search.
    [radius] has one entry per vertex; one at most [1] gives its vertex
    no entry anywhere. *)

val find : t -> Graph.vertex -> Graph.vertex -> Graph.port option
(** [find t x v] is [x]'s port toward [v], if [x] stores [v]: a binary
    search of [x]'s slice. *)

val members : t -> Graph.vertex -> int array
(** The destinations [x] stores, ascending (a copy of its slice). *)
