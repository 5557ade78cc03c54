(** Baseline comparator: the CI regression gate.

    Compares a freshly measured report against the committed baseline
    and produces one row per gated metric with a verdict:

    - [Pass] / [Improved] — within threshold, or better than baseline;
    - [Regressed] — worse than baseline by more than the threshold
      (the metric's own [m_threshold] if set, else the config default
      of 25%), or either value is not finite (a [null] read back as
      nan, an infinite rate), which no bound can judge — this is what
      fails CI;
    - [Floor_skipped] — a seconds-valued metric whose baseline and
      current values both sit under the absolute floor (default 5 ms):
      timings that small on a shared CI box are scheduler noise, and
      gating them would only manufacture flakes;
    - [Missing_baseline] — the current run has a gated bench or metric
      the baseline lacks: reported, never fatal, so a PR can add a
      bench and commit its baseline in the same change.

    A bench present in the baseline but absent from the run IS fatal:
    deleting a bench must force a baseline refresh, otherwise a gate
    can be silently disarmed. *)

type verdict = Pass | Improved | Regressed | Floor_skipped | Missing_baseline

type row = {
  g_bench : string;
  g_metric : string;
  g_unit : string;
  g_base : float option;  (** [None] iff [Missing_baseline] *)
  g_current : float;
  g_delta_pct : float;  (** signed; positive means the metric moved up *)
  g_threshold : float;  (** the threshold this row was judged against *)
  g_verdict : verdict;
}

type config = {
  threshold : float;  (** default regression fraction; 0.25 = 25% *)
  floor_seconds : float;
      (** absolute floor under which seconds-valued metrics are not
          gated; kills noise-flakes on tiny timings *)
}

val default_config : config
(** [{threshold = 0.25; floor_seconds = 0.005}] *)

type result = {
  rows : row list;
  vanished : string list;
      (** benches the baseline has but the run does not — fatal *)
  config : config;
}

val compare_reports :
  ?config:config -> baseline:Report.t -> Report.t -> result
(** [compare_reports ~baseline current]. *)

val ok : result -> bool
(** No [Regressed] row and no vanished bench. *)

val render : result -> string
(** Human-readable aligned delta table, one row per gated metric, with
    a verdict column and a one-line summary — what a red CI log shows. *)

val render_markdown : result -> string
(** The same table as GitHub-flavored markdown for the job summary. *)
