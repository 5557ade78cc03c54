(* What every workload shares: the run context, the metric catalogue
   and the result a workload hands back to perfbench.ml. *)

type ctx = {
  seed : int;
  seconds : float;        (** measuring budget of one run *)
  work : string;          (** this workload's scratch directory *)
  routing_lab : string;   (** the CLI binary servers are started from *)
}

(* A wrong answer: the run exits 1 without printing a result. *)
exception Wrong of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Wrong msg)) fmt

type metric = {
  name : string;
  value : float;
  samples : int;  (** measurements behind the value, printed beside it *)
  what : string;  (** the workload's meaning of a shared metric name *)
}

let metric ?(samples = 1) ?(what = "") name value = { name; value; samples; what }

(* End-to-end metrics: every workload reports every one. Each workload
   has a primary and a secondary stage, and a light and a heavy
   operation class; [what] says which concrete thing each name measures
   on that workload. *)
let end_to_end =
  [ ("setup_s", "s"); ("peak_rss_mb", "MiB"); ("success_frac", "ratio");
    ("primary_per_s", "1/s"); ("secondary_per_s", "1/s");
    ("light_p50_us", "us"); ("light_tail_us", "us");
    ("heavy_p50_us", "us"); ("heavy_tail_us", "us") ]

(* Per-layer metrics from the traced run, named after the library
   module they measure. A workload that bypasses a layer reports 0. *)
let per_layer =
  [ ("core.enumerate.raw_per_s", "1/s"); ("core.enumerate.classes_per_raw", "ratio");
    ("core.canonical.calls", "count"); ("core.canonical.self_s", "s");
    ("core.cgraph.self_s", "s"); ("core.verify.self_s", "s");
    ("core.reconstruct.self_s", "s");
    ("store.corpus.write_s", "s"); ("store.corpus.bytes", "B");
    ("store.index.build_s", "s");
    ("store.query.nth_us", "us"); ("store.query.mem_us", "us");
    ("store.query.rank_us", "us"); ("store.query.range_prefix_us", "us");
    ("store.query.cgraph_us", "us");
    ("graph.generate_s", "s"); ("graph.bfs.calls", "count");
    ("graph.bfs.self_s", "s"); ("graph.bfs.arcs_per_s", "1/s");
    ("graph.parallel.enum_efficiency", "ratio");
    ("routing.tz3.prepare_s", "s"); ("routing.landmark3.build_s", "s");
    ("routing.route.calls", "count"); ("routing.route.self_s", "s");
    ("routing.route.hops_per_s", "1/s");
    ("routing.tz3.landmarks", "count"); ("routing.tz3.cluster_entries", "count");
    ("routing.tz3.mem_local_bits", "bit"); ("routing.tz3.mem_global_bits", "bit");
    ("routing.tz3.stretch_mean", "ratio"); ("routing.tz3.stretch_p99", "ratio");
    ("routing.tz3.stretch_max", "ratio"); ("routing.landmark3.mem_local_bits", "bit");
    ("bitcode.encode_s", "s"); ("bitcode.bits_per_s", "1/s");
    ("bitcode.decode_s", "s");
    ("server.queue_hwm", "count");
    ("server.loop_wakeups_per_request", "ratio");
    ("server.wire.request_ns", "ns"); ("server.wire.outcome_ns", "ns");
    ("server.overloaded", "count"); ("server.timeouts", "count");
    ("server.rejected", "count"); ("server.worker_crashes", "count");
    ("client.send_us", "us"); ("client.recv_wait_us", "us");
    ("cluster.fetch_ms", "ms"); ("cluster.point_p50_us", "us");
    ("cluster.scatter_p50_us", "us"); ("cluster.scatter_p99_us", "us");
    ("cluster.failovers", "count"); ("cluster.refreshes", "count");
    ("trace.coverage", "ratio"); ("trace.overhead_frac", "ratio") ]

(* The traced run fails when its top-level spans cover less than this
   share of the traced phases' wall time. *)
let coverage_tolerance = 0.90

type outcome = {
  attempted : int;
  failed : int;      (** attempted operations that did not verify *)
  metrics : metric list;
}

(* Batch workloads repeat their fixed work in rounds until the budget
   has passed, and run at least this many. *)
let min_rounds = 2

(* Set-up is repeated [reps] times, rep [i] on CPU [Cpu.of_round i]
   and after a [Gc.compact], so no rep collects an earlier rep's
   garbage; each rep is timed in reference seconds (Calib), and the
   median is reported. *)
let median_of_reps reps f =
  let times =
    Array.init reps (fun i ->
        Cpu.pin (Cpu.of_round i);
        Gc.compact ();
        (snd (Calib.time f)).Calib.ref_s)
  in
  (Stat.median times, times)

(* The machine's state during a run, printed beside its metrics. *)
let print_slowdown s =
  Printf.printf "calibration: median slowdown %.3f (kernel time / its reference %g s)\n" s
    Calib.reference_s

let rng ctx salt = Random.State.make [| ctx.seed; salt |]

let mkdir_p dir =
  let rec go d =
    if not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      Unix.mkdir d 0o755
    end
  in
  go dir

let us_of_ns ns = Int64.to_float ns /. 1e3
let us_of_s samples = Array.map (fun s -> s *. 1e6) samples

(* Helpers over a finished trace. *)
let self_s aggs name =
  match Hashtbl.find_opt aggs name with Some a -> a.Trace.self_s | None -> 0.0

let calls aggs name =
  match Hashtbl.find_opt aggs name with Some a -> a.Trace.calls | None -> 0

let span_p50_us aggs name =
  match Hashtbl.find_opt aggs name with
  | Some a when a.Trace.durations_s <> [] ->
    Stat.median (Array.of_list a.Trace.durations_s) *. 1e6
  | _ -> 0.0

(* Gc.compact before every timed phase, so one phase's garbage is not
   collected on the next phase's clock. *)
let timed_phase f =
  Gc.compact ();
  let t0 = Umrs_bench.Clock.now_ns () in
  let r = f () in
  let t1 = Umrs_bench.Clock.now_ns () in
  (r, (t0, t1))

let window_s (t0, t1) = Int64.to_float (Int64.sub t1 t0) *. 1e-9

(* trace.coverage over several timed windows: union of top-level spans
   inside each window over the windows' summed length. *)
let coverage spans windows =
  let covered =
    List.fold_left
      (fun acc (w0, w1) ->
        let inside =
          List.filter (fun s -> s.Trace.t0 >= w0 && s.Trace.t1 <= w1) spans
        in
        acc +. Trace.top_level_s inside)
      0.0 windows
  in
  covered /. List.fold_left (fun acc w -> acc +. window_s w) 0.0 windows
