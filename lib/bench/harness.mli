(** Named-benchmark runner: warmup, iteration/time budgets, monotonic
    timing, and the standard metric set.

    Two entry styles cover every smoke in the repo:

    - {b closed-loop} micro/medium benches ([register] + [run_all], or
      [measure] directly): the harness owns the loop, runs [warmup]
      untimed iterations, then keeps iterating until it has at least
      [min_iters] runs and either [max_seconds] of measured time or
      [max_iters] runs — so a fast function gets statistics and a slow
      one still terminates;

    - {b open-loop} load drivers ([of_samples]): serve/cluster/chaos
      drive their own connection fleets and hand the harness the raw
      per-request latency samples plus the wall time, and get back the
      same bench record with rps + p50/p95/p99 computed by the shared
      {!Quantile}. *)

type budget = {
  warmup : int;  (** untimed runs before measurement *)
  min_iters : int;
  max_iters : int;
  max_seconds : float;  (** measured-time budget, checked after min_iters *)
}

val default_budget : budget
(** [{warmup = 1; min_iters = 3; max_iters = 1000; max_seconds = 1.0}] *)

val once : budget
(** One warmup-free, single-iteration budget for benches whose function
    is too expensive to repeat (full enumerations, corpus builds). *)

type measured = {
  runs : Quantile.t;  (** per-iteration seconds *)
  iters : int;
  warmup_done : int;
  seconds : float;  (** total measured seconds (sum of runs) *)
}

val measure : ?budget:budget -> (unit -> unit) -> measured

val bench_of_measured :
  name:string ->
  ?items_per_iter:float ->
  ?gate_time:bool ->
  ?gate_rate:bool ->
  ?threshold:float ->
  ?extra:Report.metric list ->
  measured ->
  Report.bench
(** Standard closed-loop metrics: [seconds_p50] (unit "s", lower is
    better, gated iff [gate_time], default true) and — when
    [items_per_iter] is given — [items_per_sec] (unit "1/s", higher is
    better, gated iff [gate_rate], default false). [threshold] becomes
    the per-metric override on every gated metric. *)

val of_samples :
  name:string ->
  seconds:float ->
  ?warmup:int ->
  ?rate_name:string ->
  ?gate_rate:bool ->
  ?gate_p95:bool ->
  ?threshold:float ->
  ?extra:Report.metric list ->
  float array ->
  Report.bench
(** Open-loop: [seconds] is driver wall time, the array holds one
    latency sample per completed item. Metrics: [rate_name] (default
    ["rps"], items/[seconds], gated iff [gate_rate], default true) and
    [latency_p50]/[latency_p95]/[latency_p99] ([latency_p95] gated iff
    [gate_p95], default false). *)

(** {1 Registry} *)

val register :
  name:string ->
  ?budget:budget ->
  ?items_per_iter:float ->
  ?gate_time:bool ->
  ?gate_rate:bool ->
  ?threshold:float ->
  (unit -> unit) ->
  unit
(** Add a named closed-loop bench to the process-global registry.
    Re-registering a name replaces the old entry. *)

val run_all :
  suite:string -> ?context:(string * Json.t) list -> unit -> Report.t
(** Run every registered bench in registration order, printing one
    progress line per bench, and return the report. *)

val clear : unit -> unit
(** Empty the registry (tests). *)
