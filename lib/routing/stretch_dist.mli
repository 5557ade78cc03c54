(** Stretch {e distributions} of a routing function — the evaluation
    axis behind [routing_lab table2] and the TZ bench: the paper's
    worst-case stretch column says nothing about the typical pair, and
    on Internet-like graphs the interesting claim (Krioukov, Fall &
    Yang) is about the p50/mean, not the max.

    Below a node cutoff the distribution is exact over all ordered
    pairs (one shared APSP via {!Umrs_graph.Dist_cache}); above it a
    seeded pair sample is measured source by source, fanned out over
    {!Umrs_graph.Parallel} domains. Each source's distances come from
    point-to-point searches ({!Umrs_graph.Bfs.distance_between}) or
    from one full BFS, whichever the work observed so far says is
    cheaper (see {!sampled}). Every distance is exact either way, so
    the result is a deterministic function of the graph and the seed. *)

type summary = {
  ds_pairs : int;    (** ratios measured (all ordered pairs if exact) *)
  ds_exact : bool;
  ds_mean : float;
  ds_p50 : float;
  ds_p95 : float;
  ds_p99 : float;
  ds_max : float;    (** max over measured pairs — a lower bound on the
                         true worst case when sampled *)
}

val default_cutoff : int
(** 1200 — a 1000-node acceptance run stays exact. *)

val default_sample_pairs : int
(** 20000. *)

val of_ratios : exact:bool -> float array -> summary
(** Summarize a per-pair ratio array (quantiles via
    {!Umrs_bench.Quantile}, nearest rank). Raises on empty input. *)

val exact : ?dist:int array array -> Routing_function.t -> summary
(** All ordered pairs, via {!Routing_function.stretch_ratios}. *)

val sampled :
  ?seed:int -> ?pairs:int -> ?domains:int -> Routing_function.t -> summary
(** [pairs] seeded uniform source/destination pairs, grouped by
    source; the sources are split over [domains] (default
    {!Umrs_graph.Parallel.default_domains}), each domain keeping one BFS
    workspace and one pair workspace. A source with [k] destinations
    runs one full {!Umrs_graph.Bfs.search} (the [2m] arcs of the graph)
    when [k] times the mean arcs its domain's pair searches have
    scanned so far is at least [2m], and otherwise one
    {!Umrs_graph.Bfs.distance_between} per destination; a domain's
    first source probes with pair searches. On graphs of small
    diameter a pair search scans a small share of [2m], so the sample
    costs about [pairs] pair searches; on a path or grid with many
    destinations per source, about one BFS per source. Plus one route
    per pair. *)

val measure :
  ?cutoff:int -> ?pairs:int -> ?seed:int -> ?domains:int ->
  Routing_function.t -> summary
(** {!exact} when [order <= cutoff] (default {!default_cutoff}), else
    {!sampled}. *)

val pp : Format.formatter -> summary -> unit
