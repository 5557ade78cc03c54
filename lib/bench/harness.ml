type budget = {
  warmup : int;
  min_iters : int;
  max_iters : int;
  max_seconds : float;
}

let default_budget =
  { warmup = 1; min_iters = 3; max_iters = 1000; max_seconds = 1.0 }

let once = { warmup = 0; min_iters = 1; max_iters = 1; max_seconds = 0.0 }

type measured = {
  runs : Quantile.t;
  iters : int;
  warmup_done : int;
  seconds : float;
}

let measure ?(budget = default_budget) f =
  if budget.max_iters < 1 || budget.min_iters < 1 then
    invalid_arg "Harness.measure: iteration budget must be positive";
  for _ = 1 to budget.warmup do f () done;
  let samples = ref [] in
  let iters = ref 0 in
  let spent = ref 0.0 in
  let continue () =
    !iters < budget.max_iters
    && (!iters < budget.min_iters || !spent < budget.max_seconds)
  in
  while continue () do
    let (), dt = Clock.time f in
    samples := dt :: !samples;
    spent := !spent +. dt;
    incr iters
  done;
  { runs = Quantile.of_list !samples; iters = !iters;
    warmup_done = budget.warmup; seconds = !spent }

let bench_of_measured ~name ?items_per_iter ?(gate_time = true)
    ?(gate_rate = false) ?threshold ?(extra = []) m =
  let time_metrics =
    [ Report.metric ~unit_:"s" ~better:Report.Lower ~gated:gate_time
        ?threshold "seconds_p50" (Quantile.p50 m.runs);
      Report.metric ~unit_:"s" ~better:Report.Lower "seconds_min"
        (Quantile.min m.runs) ]
  in
  let rate_metrics =
    match items_per_iter with
    | None -> []
    | Some items ->
      [ Report.metric ~unit_:"1/s" ~better:Report.Higher ~gated:gate_rate
          ?threshold "items_per_sec"
          (items *. float_of_int m.iters /. m.seconds) ]
  in
  { Report.b_name = name; b_iters = m.iters; b_warmup = m.warmup_done;
    b_seconds = m.seconds; b_metrics = time_metrics @ rate_metrics @ extra }

let of_samples ~name ~seconds ?(warmup = 0) ?(rate_name = "rps")
    ?(gate_rate = true) ?(gate_p95 = false) ?threshold ?(extra = []) lat =
  let q = Quantile.of_array lat in
  let n = Quantile.count q in
  let metrics =
    [ Report.metric ~unit_:"1/s" ~better:Report.Higher ~gated:gate_rate
        ?threshold rate_name
        (float_of_int n /. seconds);
      Report.metric ~unit_:"s" "latency_p50" (Quantile.p50 q);
      Report.metric ~unit_:"s" ~gated:gate_p95 ?threshold "latency_p95"
        (Quantile.p95 q);
      Report.metric ~unit_:"s" "latency_p99" (Quantile.p99 q) ]
  in
  { Report.b_name = name; b_iters = n; b_warmup = warmup;
    b_seconds = seconds; b_metrics = metrics @ extra }

(* ---------- registry ---------- *)

type entry = { e_name : string; e_run : unit -> Report.bench }

let registry : entry list ref = ref []

let register ~name ?budget ?items_per_iter ?gate_time ?gate_rate ?threshold f
    =
  let e =
    { e_name = name;
      e_run =
        (fun () ->
          bench_of_measured ~name ?items_per_iter ?gate_time ?gate_rate
            ?threshold (measure ?budget f)) }
  in
  registry := List.filter (fun x -> x.e_name <> name) !registry @ [ e ]

let clear () = registry := []

let run_all ~suite ?context () =
  let benches =
    List.map
      (fun e ->
        let b = e.e_run () in
        Printf.printf "%s: %s: %d iter(s) in %s%s\n%!" suite e.e_name
          b.Report.b_iters
          (Report.show_value "s" b.Report.b_seconds)
          (match Report.find_metric b "seconds_p50" with
          | Some m -> ", p50 " ^ Report.show_value "s" m.Report.m_value
          | None -> "");
        b)
      !registry
  in
  Report.make ~suite ?context benches
