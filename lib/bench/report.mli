(** The [umrs/bench/v1] report: one versioned, machine-readable schema
    for every benchmark in the repo.

    A report is a suite of named benches. Each bench carries its
    iteration/warmup counts, total measured wall seconds, and a flat
    list of metrics; each metric knows its unit, which direction is
    better, whether the baseline gate checks it, and (optionally) a
    per-metric regression threshold overriding the gate default. The
    envelope records when and where the numbers were taken — git
    commit, hostname, core count, OCaml version — so a committed
    baseline or a history line is interpretable months later.

    Schema (see DESIGN.md for the field-by-field contract):

    {v
    {"schema": "umrs/bench/v1", "suite": "serve",
     "created_unix": 1754650000, "commit": "<40 hex or unknown>",
     "machine": {"hostname": ..., "cores": ..., "os": ...,
                 "ocaml": ..., "word_size": ...},
     "context": {... free-form, e.g. the instance (p,q,d) ...},
     "benches": [
       {"name": "serve/1000x8", "iterations": 32000, "warmup": 0,
        "seconds": 0.674,
        "metrics": [
          {"name": "rps", "value": 47460.3, "unit": "1/s",
           "better": "higher", "gated": true},
          {"name": "latency_p95", "value": 0.3397, "unit": "s",
           "better": "lower", "gated": false}]}]}
    v} *)

type better = Higher | Lower

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;  (** "s", "1/s", "B/s", "x" (ratio), or "" *)
  m_better : better;
  m_gated : bool;
  m_threshold : float option;
      (** Per-metric regression threshold (fraction, e.g. [0.5] for
          50%) overriding the gate's default; [None] uses the default. *)
}

type bench = {
  b_name : string;
  b_iters : int;
  b_warmup : int;
  b_seconds : float;  (** total measured wall seconds for the bench *)
  b_metrics : metric list;
}

type t = {
  r_suite : string;
  r_created : float;
  r_commit : string;
  r_machine : (string * Json.t) list;
  r_context : (string * Json.t) list;
  r_benches : bench list;
}

val schema : string
(** ["umrs/bench/v1"]. *)

val metric :
  ?unit_:string ->
  ?better:better ->
  ?gated:bool ->
  ?threshold:float ->
  string ->
  float ->
  metric
(** Defaults: unit [""], [Lower] is better, not gated, no per-metric
    threshold. *)

val make :
  suite:string -> ?context:(string * Json.t) list -> bench list -> t
(** Stamps creation time, the current git commit ([GITHUB_SHA], then
    [git rev-parse HEAD], then ["unknown"]) and machine metadata. *)

val find_bench : t -> string -> bench option
val find_metric : bench -> string -> metric option

val show_value : string -> float -> string
(** [show_value unit_ v] renders a value in its unit's natural scale:
    seconds (unit ["s"]) as [us], [ms] or [s], anything else as a plain
    number followed by the unit. The one formatter for measured values
    in gate tables and progress lines. *)

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
(** A metric value that is not finite is written as [null] and read
    back as [nan]. *)

val save : path:string -> t -> unit
(** Write the pretty-printed report; truncates an existing file. *)

val load : path:string -> (t, string) result
(** Read and validate; I/O and parse failures come back as [Error]. *)
