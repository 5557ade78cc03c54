(** Universal routing schemes and their memory accounting.

    A scheme maps any graph to a routing function together with a
    bit-exact encoding of each router's local state — the concrete
    stand-in for the paper's Kolmogorov-complexity measure
    [MEM_G(R, x)]. [MEM_local] and [MEM_global] are Definition-level
    quantities of Section 1. *)

open Umrs_graph

type built = {
  rf : Routing_function.t;
  local_encoding : Graph.vertex -> Umrs_bitcode.Bitbuf.t;
      (** The bits router [x] must store. Encodings are self-contained
          per scheme (decodable given only the scheme and [x]'s label,
          degree, and the bits). *)
  description : string;
}

type t = {
  name : string;
  stretch_bound : float option;
      (** Guaranteed worst-case stretch, if the scheme has one. *)
  build : Graph.t -> built;
}

val mem_at : built -> Graph.vertex -> int
(** Bits stored at one router. *)

val mem_local : built -> int
(** [max_x MEM(x)] — the paper's local memory requirement of the
    produced routing function. *)

val mem_global : built -> int
(** [sum_x MEM(x)]. *)

val mem_profile : built -> int array
(** Per-vertex bit counts. Each call encodes every router, as do
    {!mem_local} and {!mem_global}. *)

val memory : built -> int * int
(** [(mem_local b, mem_global b)] from one {!mem_profile}: one encoding
    of every router for both. *)

type evaluation = {
  scheme_name : string;
  graph_name : string;
  order : int;
  edges : int;
  mem_local_bits : int;
  mem_global_bits : int;
  stretch : Stretch_dist.summary;  (** exact: every ordered pair *)
}

val evaluate :
  ?dist:int array array -> t -> graph_name:string -> Graph.t -> evaluation
(** Build the scheme on the graph, then {!memory}, then
    {!Stretch_dist.exact} over every ordered pair. Pass [dist] to share
    one distance matrix across schemes on the same graph. *)

val pp_evaluation : Format.formatter -> evaluation -> unit
