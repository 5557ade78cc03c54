(** Structured telemetry: counters, gauges, timers and a JSONL event
    sink, default off.

    Long enumeration and simulation runs are opaque while they execute;
    this module gives every layer a single cheap way to report progress
    and metrics without printing to the user's terminal. Events are
    appended to a JSONL file, one object per line, printed by
    {!Umrs_bench.Json}:

    {v {"ts": <seconds since sink open>, "event": "<name>",
        "fields": {"<key>": <int|float|string|bool>, ...}} v}

    [ts] and {!span}'s [seconds] come from the monotonic
    {!Umrs_bench.Clock}, so a wall-clock step never makes them jump or
    run backwards. An [Int] field is written as a JSON number, exact
    below 2{^53}, which covers every count the code emits; a non-finite
    [Float] is written as [null].

    The schema is documented in DESIGN.md section 8 together with the
    event names each subsystem emits.

    {b Zero-overhead contract.} With no sink configured (the default)
    every emission site must allocate nothing: instrumented code guards
    each [emit] with {!enabled}, so the field list is only built when a
    sink is attached. Counters and gauges mutate preallocated records
    and are always free to update. This contract is asserted by a test
    that measures minor-heap words across a burst of disabled events.

    The sink is process-global and writes are serialized by a mutex, so
    domains spawned by {!Umrs_graph.Parallel} can emit concurrently. *)

type value = Int of int | Float of float | Str of string | Bool of bool

val enabled : unit -> bool
(** [true] iff a sink is attached. Guard every [emit] call site with
    this so the no-op path builds no field list. *)

val emit : string -> (string * value) list -> unit
(** Append one event line to the sink; no-op without a sink. *)

val now : unit -> float
(** Monotonic seconds since the sink was opened (or since program start
    when no sink is attached) — the value written to the [ts] field. *)

val open_file : string -> unit
(** Attach a JSONL sink appending to the given path (truncates an
    existing file). Replaces any previously attached sink. *)

val flush : unit -> unit
(** Push buffered event lines to the OS without detaching the sink, so
    the JSONL file holds only whole records at a safe point (a server's
    drain path calls this before closing connections). No-op without a
    sink. *)

val close : unit -> unit
(** Emit a final [metrics] event summarizing every registered counter
    and gauge, detach and flush the sink. No-op without a sink. *)

val with_file : string -> (unit -> 'a) -> 'a
(** [with_file path f] opens the sink, runs [f], and closes the sink
    even on exceptions. *)

(** {1 Metrics}

    Counters and gauges are registered once (typically at module
    initialization), updated for free, and flushed as a single
    [metrics] event by {!close} or {!flush_metrics}. *)

type counter

val counter : string -> counter
(** Register (or look up) a counter by name. *)

val add : counter -> int -> unit
(** Increment; allocation-free, sink or not, and exact when several
    domains add to one counter at once. *)

val counter_value : counter -> int

type gauge

val gauge : string -> gauge
val set_gauge : gauge -> float -> unit
val gauge_value : gauge -> float

val flush_metrics : unit -> unit
(** Emit one [metrics] event carrying every registered counter and
    gauge; no-op without a sink. *)

val span : string -> (unit -> 'a) -> 'a
(** [span name f] runs [f]; with a sink attached it also emits [name]
    with a [seconds] field measuring [f]'s elapsed monotonic time and an
    [ok] field, false when [f] raised. Without a sink it is exactly
    [f ()]. *)

val reset_for_tests : unit -> unit
(** Detach any sink and forget registered metrics. Test isolation
    only. *)
