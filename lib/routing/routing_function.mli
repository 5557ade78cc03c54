(** The routing-function model of Peleg & Upfal as used by Fraigniaud &
    Gavoille: a triple [R = (I, H, P)] of initialization, header, and
    port functions.

    For two distinct nodes [u], [v], [R] produces a path
    [u = u_0, u_1, ..., u_k = v] and headers [h_0, ..., h_k] with
    [h_0 = I u v], [P u_k h_k = None] (delivered), and for all
    [0 <= i < k], [H u_i h_i = h_{i+1}] and the arc leaving [u_i] on
    port [P u_i h_i] goes to [u_{i+1}].

    Headers are arbitrary values (the paper allows unbounded headers);
    we keep them abstract per routing function via a universal [header]
    type. *)

open Umrs_graph

type header =
  | Dest of Graph.vertex  (** plain destination-address header *)
  | Packed of int array   (** scheme-specific fields *)

val pp_header : Format.formatter -> header -> unit

type t = {
  graph : Graph.t;
  init : Graph.vertex -> Graph.vertex -> header;
      (** [init u v] is the header attached at source [u] for
          destination [v] ([u <> v]). *)
  port : Graph.vertex -> header -> Graph.port option;
      (** [port u h]: [None] means the message is delivered at [u];
          [Some k] forwards on local port [k]. *)
  next_header : Graph.vertex -> header -> header;
      (** [next_header u h] is the header accompanying the message on
          the next arc (the paper's [H]). *)
}

val of_next_hop : Graph.t -> (Graph.vertex -> Graph.vertex -> Graph.port) -> t
(** [of_next_hop g f] wraps a next-port table [f cur dst] into the
    [(I,H,P)] model with destination-address headers. *)

(** {1 Executing a routing function} *)

type trace = {
  path : Graph.vertex list;   (** [u_0; ...; u_k] *)
  headers : header list;      (** [h_0; ...; h_k] *)
  hops : int;                 (** [k] *)
}

exception Routing_loop of Graph.vertex * Graph.vertex
(** Raised by [route] when the hop budget is exhausted. *)

val route : ?max_hops:int -> t -> Graph.vertex -> Graph.vertex -> trace
(** Runs the function from source to destination. Default hop budget is
    [4 * order + 16]. Raises [Routing_loop] on budget exhaustion and
    [Invalid_argument] if the function delivers at a wrong vertex. *)

val route_length : ?max_hops:int -> t -> Graph.vertex -> Graph.vertex -> int
(** Hop count of [route], with the same budget and errors, walked
    without building the path and header lists. *)

val delivers_all : t -> bool
(** All ordered pairs are delivered without looping. *)

(** {1 Stretch} *)

val stretch_at_most : ?dist:int array array -> t -> num:int -> den:int -> bool
(** [stretch_at_most rf ~num ~den]: every routing path satisfies
    [den * dR <= num * dG] — exact rational comparison, no floats.
    [dist] defaults to {!Umrs_graph.Parallel.all_pairs}. The stretch
    distribution is {!Stretch_dist.exact}. *)

(** {1 Header accounting}

    The paper's [MEM] deliberately excludes header size ("we allow
    headers to be of unbounded size"); these helpers measure what that
    exclusion hides. *)

val header_bits : order:int -> header -> int
(** Bits of a straightforward header encoding: [Dest v] costs
    [ceil(log2 order)]; [Packed a] costs the sum of the fields' widths
    (each at least 1 bit). *)

val max_header_bits : t -> int
(** Maximum header size over all ordered pairs and all hops of their
    routes (exhaustive). *)
