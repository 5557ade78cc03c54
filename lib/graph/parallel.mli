(** Multicore helpers (OCaml 5 domains) for the embarrassingly parallel
    parts of the suite — all-pairs BFS dominates every experiment's
    runtime, and each source is independent.

    No external dependency: plain [Domain.spawn] over contiguous source
    slices. Results are deterministic and equal to the sequential
    versions (tested). *)

val default_domains : unit -> int
(** [max 1 (Domain.recommended_domain_count () - 1)]. *)

val map_range : ?domains:int -> int -> (int -> 'a) -> 'a array
(** [map_range ~domains n f] is [Array.init n f] computed on [domains]
    domains ([f] must be thread-safe; indices are split into contiguous
    chunks). Falls back to sequential for [n < 2] or [domains <= 1]. *)

val chunks : domains:int -> int -> (int * int) array
(** [chunks ~domains n] splits [0, n)] into at most [domains]
    contiguous [(lo, hi)] half-open ranges covering it exactly (empty
    for [n = 0]). *)

val map_ranges : ?domains:int -> int -> (lo:int -> hi:int -> 'a) -> 'a array
(** [map_ranges ~domains n f] applies [f] to each chunk of [0, n)] on
    its own domain and returns the per-chunk results in range order
    ([f] must be thread-safe). The work-sharding primitive behind the
    parallel enumeration engine: unlike {!map_range} it materializes
    one result per {e chunk}, not per index, so the index space can be
    in the millions without allocating an array of that size. *)

val map_range_with :
  ?domains:int ->
  init:(unit -> 's) ->
  ?finally:('s -> unit) ->
  int -> ('s -> int -> 'a) -> 'a array
(** [map_range_with ~init ~finally n f] is {!map_range} with per-domain
    resources: each contiguous chunk of [0, n)] runs [init ()] once,
    passes the resulting state to every [f state i] of the chunk in
    increasing index order, and runs [finally] on it afterwards (also
    on exceptions). Built for workers that share expensive
    single-threaded state across a chunk — a file handle, a decoder
    buffer, a {!Umrs_core.Canonical.workspace} — without sharing it
    across domains. Sequential ([domains <= 1]) runs use one state for
    the whole range. *)

val all_pairs : ?domains:int -> Graph.t -> int array array
(** Parallel {!Bfs.all_pairs}: one {!Bfs.workspace} per domain. *)
