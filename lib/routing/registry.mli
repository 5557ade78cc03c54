(** Central registry of the suite's universal routing schemes.

    One place to enumerate every scheme that accepts an arbitrary
    connected graph — the comparison set behind Table 1's measured
    columns, the CLI's [--scheme] argument, and downstream users'
    sweeps. Specialized (partial) schemes like e-cube live in
    {!Specialized} and are not listed here. *)

val universal : unit -> Scheme.t list
(** All universal schemes, deterministic order: tables, tables-rle,
    interval (DFS and identity), landmark-3, tz-3, spanner-3, spanner-5,
    hierarchical, tree-cover. *)

val find : string -> Scheme.t option
(** Look a scheme up by its [Scheme.name]. *)

val names : unit -> string list

val compare_on :
  ?dist:int array array ->
  graph_name:string ->
  Umrs_graph.Graph.t ->
  Scheme.t list ->
  Scheme.evaluation list
(** Evaluate several schemes on one graph (sharing the distance
    matrix). *)

val csv_header : string
(** Column names matching {!to_csv_row}: scheme, graph, n, m, the two
    memory columns, then the {!Stretch_dist.summary} (pairs, exact or
    sampled, mean, p50, p95, p99, max). [routing_lab table2 --csv]
    prints this table. *)

val to_csv_row : Scheme.evaluation -> string
(** One comma-separated line per evaluation (no quoting needed: fields
    are identifiers and numbers). *)

val to_csv : Scheme.evaluation list -> string
(** Header plus one row per evaluation. *)
