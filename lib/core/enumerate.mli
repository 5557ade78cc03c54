(** Exhaustive enumeration of [dM(p,q)] — the canonical representatives
    of all [p x q] matrices with entries in [{1..d}] (the paper's
    notation for the set whose cardinality drives Theorem 1).

    The engine shards the [d^(pq)] digit space across OCaml domains
    ({!Umrs_graph.Parallel.map_ranges}): each shard canonicalizes its
    slice through a private {!Canonical.workspace} (allocation-free,
    pruned: the column-order search of {!Canonical}; under one minor
    word per call, asserted in [test/test_enumerate_parallel.ml]) and
    deduplicates through a private table of bit-packed
    {!Mkey} keys; the per-domain tables are merged and sorted at the
    end, so results are byte-identical for every domain count
    (tested). Only feasible for small parameters; this is the ground
    truth against which Lemma 1's counting bound is tested, and the
    instance generator for the end-to-end Theorem-1 reconstruction
    experiment. *)

val default_cap : int
(** [2^22] — the default guard on [d^(pq)]. *)

val checked_total : ?cap:int -> p:int -> q:int -> d:int -> unit -> int
(** The exact [d^(pq)], after validating parameters and checking it
    against [cap] (default {!default_cap}); raises [Invalid_argument]
    past the cap, with a message naming the offending value. The size
    of the digit space every sharded run (including the corpus store's
    checkpointed builds) is partitioned over. *)

val iter_matrices : p:int -> q:int -> d:int -> (Matrix.t -> unit) -> unit
(** All [d^(pq)] raw matrices (relaxed form), row-major counting
    order. *)

val iter_entries_range :
  p:int -> q:int -> d:int -> lo:int -> hi:int -> (int array array -> unit) -> unit
(** Raw matrices with counting-order indices in [lo, hi)], delivered
    as a reused entries buffer (do not retain or mutate it). The
    allocation-free primitive the shards are built on. *)

val canonical_into :
  ?progress:(done_hi:int -> unit) ->
  ?progress_every:int ->
  tbl:Matrix.t Mkey.Tbl.t ->
  variant:Canonical.variant ->
  p:int -> q:int -> d:int -> lo:int -> hi:int -> unit -> unit
(** Canonicalize every raw matrix with counting-order index in
    [[lo, hi)] and deduplicate the representatives into [tbl] (keyed by
    {!Mkey.of_rows} at base [d]). [progress ~done_hi] fires after every
    [progress_every] (default [2^14]) processed indices — never at
    [hi] itself — reporting that [[lo, done_hi)] is fully processed;
    the corpus store's checkpointing hangs off this hook. [tbl] may be
    pre-populated (resume): existing keys are kept. Thread-safe across
    domains as long as [tbl] is not shared. *)

val merged_sorted : Matrix.t Mkey.Tbl.t array -> Matrix.t list
(** Merge per-shard dedup tables and sort by {!Matrix.compare_lex} —
    the deterministic final step shared by {!canonical_set} and the
    corpus store builder: the result depends only on the union of the
    tables, not on shard boundaries or domain count. *)

val canonical_set :
  ?variant:Canonical.variant ->
  ?cap:int ->
  ?domains:int ->
  p:int -> q:int -> d:int -> unit -> Matrix.t list
(** [dM(p,q)] for entry bound [d], sorted by [Matrix.compare_lex].
    Defaults to the [Full] Definition-2 group; [Positional] reproduces
    the paper's displayed 7-element example for [p = q = d = 2].
    Raises [Invalid_argument] when [d^(pq)] exceeds [cap] (default
    {!default_cap}); the message names the offending value. [domains]
    defaults to {!Umrs_graph.Parallel.default_domains}; the result
    does not depend on it. *)

val count :
  ?variant:Canonical.variant ->
  ?cap:int ->
  ?domains:int ->
  p:int -> q:int -> d:int -> unit -> int
(** [|dM(p,q)|] = length of [canonical_set]. *)

val class_size :
  ?variant:Canonical.variant ->
  ?cap:int ->
  ?domains:int ->
  p:int -> q:int -> d:int -> Matrix.t -> int
(** Number of raw matrices (entries in [{1..d}]) equivalent to the
    given one. Summing over [canonical_set] recovers [d^(pq)]. *)
