(** Stretch {e distributions} of a routing function: the one stretch
    summary of the suite. [Scheme.evaluate], [Registry]'s CSV, the
    [Evaluate] wire reply, [routing_lab table2] and the TZ bench all
    report it. The paper's worst-case stretch column says nothing about
    the typical pair, and on Internet-like graphs the interesting claim
    (Krioukov, Fall & Yang) is about the p50/mean, not the max.

    {!exact} covers every ordered pair, with distances from one
    {!Umrs_graph.Parallel.all_pairs} unless the caller passes a matrix
    to share. Above a node cutoff {!measure} switches to a seeded pair
    sample, measured source by source and fanned out over
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
    {!Umrs_bench.Quantile}, nearest rank). An [exact] mean is a
    compensated sum, within about one rounding of the exact mean; a
    sampled one is {!Umrs_bench.Quantile.mean}, summed in sorted order.
    An empty array, as on a graph of fewer than two vertices, gives 0
    pairs and 1.0 for every statistic. *)

val of_pairs :
  int -> (Umrs_graph.Graph.vertex -> Umrs_graph.Graph.vertex -> float) ->
  summary
(** [of_pairs n ratio] is the exact summary of [ratio u v] over the
    [n(n-1)] ordered pairs of distinct vertices of [[0, n)], row-major. *)

val exact : ?dist:int array array -> Routing_function.t -> summary
(** Every ordered pair: routed hops over distance. [dist] defaults to
    {!Umrs_graph.Parallel.all_pairs} of the routing function's graph.
    Raises [Invalid_argument] on a disconnected pair, and whatever
    {!Routing_function.route} raises on an undelivered one. *)

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
(** {!exact} when [order <= cutoff] (default {!default_cutoff}) or
    [order < 2], else {!sampled}. *)

val pp : Format.formatter -> summary -> unit
