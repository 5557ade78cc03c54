(* Umrs_bench: the shared benchmark library behind every smoke.

   Four layers, mirroring the module stack:

   - Quantile against a naive sorted oracle (seeded property via Gen,
     plus the deterministic small-n edges: n = 1, n = 2, all ties);
   - Report: umrs/bench/v1 encode/decode round-trip on random reports,
     and rejection of malformed input;
   - History: append-then-load, and tolerance of a corrupt or torn
     trailing line (skipped and counted, never fatal);
   - non-finite metric values: written as null, read back as nan by
     both Report and History;
   - Gate: every comparator verdict (pass, improved, regression,
     missing-baseline, tiny-timing floor, vanished bench, per-metric
     threshold override, custom config), then an end-to-end run: a
     real measured baseline saved to disk, a deliberately slowed rerun
     that must fail with the delta table, and a same-speed rerun that
     must pass. *)

module B = Umrs_bench

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* ---------- Quantile vs naive oracle ---------- *)

let oracle a p =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  let rank = Stdlib.max 1 (int_of_float (ceil (p /. 100. *. float_of_int n))) in
  s.(rank - 1)

let print_sample a =
  "["
  ^ String.concat " " (List.map string_of_float (Array.to_list a))
  ^ "]"

let shrink_sample a =
  let n = Array.length a in
  if n <= 1 then Seq.empty else Seq.return (Array.sub a 0 (n - 1))

(* Values from a 7-element pool: samples of any interesting size are
   full of ties, the case ad-hoc percentile code kept getting wrong. *)
let tied_sample =
  Gen.make ~print:print_sample ~shrink:shrink_sample (fun st ->
      let n = 1 + Random.State.int st 50 in
      Array.init n (fun _ -> float_of_int (Random.State.int st 7) /. 4.))

let continuous_sample =
  Gen.make ~print:print_sample ~shrink:shrink_sample (fun st ->
      let n = 1 + Random.State.int st 50 in
      Array.init n (fun _ -> Random.State.float st 1000.))

let probe_ps = [ 0.; 1.; 12.5; 25.; 50.; 75.; 90.; 95.; 99.; 100. ]

let matches_oracle a =
  let t = B.Quantile.of_array a in
  let n = Array.length a in
  List.for_all (fun p -> B.Quantile.value t p = oracle a p) probe_ps
  && B.Quantile.count t = n
  && B.Quantile.min t = oracle a 0.
  && B.Quantile.max t = oracle a 100.
  && B.Quantile.p50 t = oracle a 50.
  && B.Quantile.p95 t = oracle a 95.
  && B.Quantile.p99 t = oracle a 99.
  && Float.abs (B.Quantile.total t -. Array.fold_left ( +. ) 0. a)
     <= 1e-9 *. float_of_int n
  && Float.abs (B.Quantile.mean t -. (B.Quantile.total t /. float_of_int n))
     <= 1e-12

let quantile_edges () =
  (* n = 1: every percentile is the sample *)
  let one = B.Quantile.of_list [ 42. ] in
  List.iter
    (fun p -> Alcotest.(check (float 0.)) "n=1" 42. (B.Quantile.value one p))
    probe_ps;
  (* n = 2: nearest-rank median is the SMALLER element *)
  let two = B.Quantile.of_array [| 3.; 1. |] in
  Alcotest.(check (float 0.)) "n=2 p0" 1. (B.Quantile.value two 0.);
  Alcotest.(check (float 0.)) "n=2 p50" 1. (B.Quantile.p50 two);
  Alcotest.(check (float 0.)) "n=2 p51" 3. (B.Quantile.value two 51.);
  Alcotest.(check (float 0.)) "n=2 p95" 3. (B.Quantile.p95 two);
  Alcotest.(check (float 0.)) "n=2 p100" 3. (B.Quantile.max two);
  (* all ties *)
  let ties = B.Quantile.of_array [| 2.; 2.; 2.; 2.; 2. |] in
  List.iter
    (fun p -> Alcotest.(check (float 0.)) "ties" 2. (B.Quantile.value ties p))
    probe_ps;
  (* input is copied, not sorted in place *)
  let a = [| 9.; 1.; 5. |] in
  ignore (B.Quantile.of_array a);
  check_bool "input untouched" true (a = [| 9.; 1.; 5. |]);
  (* domain errors *)
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  check_bool "empty rejected" true (raises (fun () -> B.Quantile.of_array [||]));
  check_bool "p < 0 rejected" true (raises (fun () -> B.Quantile.value two (-1.)));
  check_bool "p > 100 rejected" true (raises (fun () -> B.Quantile.value two 100.5))

(* ---------- Report round-trip ---------- *)

(* Random reports whose floats are short decimals (k/1000, k/10), so an
   exact [=] after encode -> print -> parse -> decode is the contract:
   the v1 printer must not lose them. *)
let report_arb =
  let print (r : B.Report.t) = B.Json.to_string (B.Report.to_json r) in
  Gen.make ~print (fun st ->
      let milli st =
        float_of_int (Random.State.int st 2_000_000 - 1_000_000) /. 1000.
      in
      let metric st i =
        B.Report.metric
          ~unit_:(List.nth [ "s"; "1/s"; "B/s"; "x"; "" ] (Random.State.int st 5))
          ~better:(if Random.State.bool st then B.Report.Higher else B.Report.Lower)
          ~gated:(Random.State.bool st)
          ?threshold:
            (if Random.State.bool st then
               Some (float_of_int (1 + Random.State.int st 40) /. 10.)
             else None)
          (Printf.sprintf "m%d" i) (milli st)
      in
      let bench st i =
        { B.Report.b_name = Printf.sprintf "t/bench%d" i;
          b_iters = Random.State.int st 100_000;
          b_warmup = Random.State.int st 10;
          b_seconds = Float.abs (milli st);
          b_metrics = List.init (Random.State.int st 4) (metric st) }
      in
      { B.Report.r_suite = "t";
        r_created = float_of_int (1_700_000_000 + Random.State.int st 100_000);
        r_commit = "cafebabe";
        r_machine =
          [ ("hostname", B.Json.Str "box"); ("cores", B.Json.Num 8.);
            ("os", B.Json.Str "Unix"); ("ocaml", B.Json.Str "5.1.1");
            ("word_size", B.Json.Num 64.) ];
        r_context = [ ("seed", B.Json.Num (float_of_int (Random.State.int st 1000))) ];
        r_benches = List.init (1 + Random.State.int st 3) (bench st) })

let round_trips r =
  match B.Json.parse (B.Json.to_string (B.Report.to_json r)) with
  | Error _ -> false
  | Ok j -> (
    match B.Report.of_json j with Ok r' -> r' = r | Error _ -> false)

let report_rejects () =
  let bad j = match B.Report.of_json j with Ok _ -> false | Error _ -> true in
  check_bool "empty object" true (bad (B.Json.Obj []));
  check_bool "wrong schema" true
    (bad (B.Json.Obj [ ("schema", B.Json.Str "umrs/bench/v0") ]));
  check_bool "garbage text" true
    (match B.Json.parse "[1," with Ok _ -> false | Error _ -> true);
  check_bool "missing file" true
    (match B.Report.load ~path:"/nonexistent/umrs.json" with
    | Ok _ -> false
    | Error _ -> true);
  (* the live constructor stamps a well-formed envelope *)
  let r = B.Report.make ~suite:"t" [] in
  check_bool "make round-trips" true (round_trips r);
  check_bool "make stamps schema" true
    (B.Json.member "schema" (B.Report.to_json r)
    = Some (B.Json.Str B.Report.schema))

(* ---------- History ---------- *)

let mk_report ?(commit = "c0ffee") ?(suite = "t") benches =
  { B.Report.r_suite = suite; r_created = 1_700_000_000.; r_commit = commit;
    r_machine = []; r_context = []; r_benches = benches }

let mk_bench ?(seconds = 0.5) name metrics =
  { B.Report.b_name = name; b_iters = 10; b_warmup = 1; b_seconds = seconds;
    b_metrics = metrics }

let history_append_load () =
  let path = Filename.temp_file "umrs_bench_hist" ".jsonl" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ())
  @@ fun () ->
  let entries () = B.History.load ~path () in
  check_bool "empty file loads clean" true (entries () = ([], 0));
  B.History.append ~path
    (mk_report ~commit:"aaa"
       [ mk_bench "t/a" [ B.Report.metric "rps" 100.5 ];
         mk_bench "t/b" [ B.Report.metric "rps" 7. ] ]);
  B.History.append ~path
    (mk_report ~commit:"bbb" [ mk_bench "t/a" [ B.Report.metric "rps" 120. ] ]);
  let es, skipped = entries () in
  check_int "three lines" 3 (List.length es);
  check_int "no skips" 0 skipped;
  check_bool "order and fields survive" true
    (List.map (fun e -> (e.B.History.h_commit, e.B.History.h_bench)) es
    = [ ("aaa", "t/a"); ("aaa", "t/b"); ("bbb", "t/a") ]);
  check_bool "metric values survive" true
    ((List.hd es).B.History.h_metrics = [ ("rps", 100.5) ]);
  (* a wrong-shape line and a torn trailing line: skipped, counted,
     and everything parsable still loads *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{\"nope\": true}\n";
  output_string oc "{\"ts\": 1, \"commit\": \"torn-by-power-lo";
  close_out oc;
  let es, skipped = entries () in
  check_int "parsable lines kept" 3 (List.length es);
  check_int "corrupt lines counted" 2 skipped

(* ---------- Non-finite values ---------- *)

(* JSON has no NaN or infinity: the printer writes null, and a metric
   value reads null back as nan, so a report or history line holding one
   is neither rejected nor skipped as corrupt. *)
let non_finite_round_trip () =
  check_bool "printer writes null" true
    (B.Json.to_string ~indent:0
       (B.Json.Obj
          [ ("a", B.Json.Num Float.nan); ("b", B.Json.Num Float.infinity);
            ("c", B.Json.Num Float.neg_infinity) ])
    = "{\"a\": null,\"b\": null,\"c\": null}");
  let r =
    mk_report
      [ mk_bench "t/nf"
          [ B.Report.metric "nan" Float.nan;
            B.Report.metric "inf" Float.infinity ] ]
  in
  let all_nan values =
    List.length values = 2 && List.for_all Float.is_nan values
  in
  let path = Filename.temp_file "umrs_bench_nf" ".json" in
  let hist = Filename.temp_file "umrs_bench_nf" ".jsonl" in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun p -> try Sys.remove p with _ -> ()) [ path; hist ])
  @@ fun () ->
  B.Report.save ~path r;
  (match B.Report.load ~path with
  | Error e -> Alcotest.failf "report load: %s" e
  | Ok r' ->
    check_bool "report reads nan back" true
      (all_nan
         (List.concat_map
            (fun b ->
              List.map (fun m -> m.B.Report.m_value) b.B.Report.b_metrics)
            r'.B.Report.r_benches)));
  B.History.append ~path:hist r;
  let es, skipped = B.History.load ~path:hist () in
  check_int "history line not skipped" 0 skipped;
  check_bool "history reads nan back" true
    (match es with
    | [ e ] -> all_nan (List.map snd e.B.History.h_metrics)
    | _ -> false)

(* ---------- Gate verdicts ---------- *)

let sec ?threshold v = B.Report.metric ~unit_:"s" ~gated:true ?threshold "lat" v
let rate ?threshold v =
  B.Report.metric ~unit_:"1/s" ~better:B.Report.Higher ~gated:true ?threshold
    "rps" v

let find_row res bench metric =
  List.find
    (fun r -> r.B.Gate.g_bench = bench && r.B.Gate.g_metric = metric)
    res.B.Gate.rows

let verdict_of base cur =
  let res =
    B.Gate.compare_reports
      ~baseline:(mk_report [ mk_bench "t/x" [ base ] ])
      (mk_report [ mk_bench "t/x" [ cur ] ])
  in
  ((find_row res "t/x" cur.B.Report.m_name).B.Gate.g_verdict, B.Gate.ok res)

let gate_verdicts () =
  let is v = ( = ) (v : B.Gate.verdict) in
  (* lower-better seconds, default 25% threshold, above the 5ms floor *)
  let v, ok = verdict_of (sec 0.100) (sec 0.110) in
  check_bool "within threshold: pass" true (is B.Gate.Pass v && ok);
  let v, ok = verdict_of (sec 0.100) (sec 0.080) in
  check_bool "faster: improved" true (is B.Gate.Improved v && ok);
  let v, ok = verdict_of (sec 0.100) (sec 0.200) in
  check_bool "2x slower: regressed" true (is B.Gate.Regressed v && not ok);
  (* higher-better rate *)
  let v, ok = verdict_of (rate 1000.) (rate 600.) in
  check_bool "rate collapse: regressed" true (is B.Gate.Regressed v && not ok);
  let v, ok = verdict_of (rate 1000.) (rate 1400.) in
  check_bool "rate up: improved" true (is B.Gate.Improved v && ok);
  (* tiny-timing floor: a 4x swing under 5ms is scheduler noise *)
  let v, ok = verdict_of (sec 0.001) (sec 0.004) in
  check_bool "under floor: skipped" true (is B.Gate.Floor_skipped v && ok);
  (* ...but only for seconds-valued metrics *)
  let v, _ = verdict_of (rate 0.001) (rate 0.004) in
  check_bool "floor ignores rates" true (is B.Gate.Improved v);
  (* per-metric threshold override: +80% is fine under a 100% gate *)
  let v, ok = verdict_of (sec ~threshold:1.0 0.100) (sec ~threshold:1.0 0.180) in
  check_bool "override loosens" true (is B.Gate.Pass v && ok);
  let row =
    let res =
      B.Gate.compare_reports
        ~baseline:(mk_report [ mk_bench "t/x" [ sec ~threshold:1.0 0.100 ] ])
        (mk_report [ mk_bench "t/x" [ sec ~threshold:1.0 0.180 ] ])
    in
    find_row res "t/x" "lat"
  in
  check_bool "row reports the override" true (row.B.Gate.g_threshold = 1.0);
  (* a non-finite value on either side (a saved null reads back as nan;
     a zero-second rate is inf) cannot be judged: it fails the gate *)
  List.iter
    (fun (what, base, cur) ->
      let v, ok = verdict_of base cur in
      check_bool what true (is B.Gate.Regressed v && not ok))
    [ ("nan baseline rate", rate Float.nan, rate 1000.);
      ("nan current rate", rate 1000., rate Float.nan);
      ("inf baseline rate", rate Float.infinity, rate 1000.);
      ("inf current rate", rate 1000., rate Float.infinity);
      ("nan baseline under floor", sec Float.nan, sec 0.001);
      ("nan current seconds", sec 0.100, sec Float.nan) ];
  (* ungated metrics never produce rows *)
  let res =
    B.Gate.compare_reports
      ~baseline:(mk_report [ mk_bench "t/x" [ B.Report.metric "lat" 1. ] ])
      (mk_report [ mk_bench "t/x" [ B.Report.metric "lat" 99. ] ])
  in
  check_bool "ungated invisible" true (res.B.Gate.rows = [] && B.Gate.ok res);
  (* custom config: tighter threshold, floor disabled *)
  let config = { B.Gate.threshold = 0.05; floor_seconds = 0.0 } in
  let res =
    B.Gate.compare_reports ~config
      ~baseline:(mk_report [ mk_bench "t/x" [ sec 0.001 ] ])
      (mk_report [ mk_bench "t/x" [ sec 0.0012 ] ])
  in
  check_bool "custom config bites" true
    ((find_row res "t/x" "lat").B.Gate.g_verdict = B.Gate.Regressed)

let gate_missing_and_vanished () =
  (* a gated bench the baseline lacks: reported, never fatal, so a PR
     can add a bench and its baseline in one change *)
  let res =
    B.Gate.compare_reports
      ~baseline:(mk_report [ mk_bench "t/old" [ sec 0.1 ] ])
      (mk_report [ mk_bench "t/old" [ sec 0.1 ]; mk_bench "t/new" [ sec 9. ] ])
  in
  let row = find_row res "t/new" "lat" in
  check_bool "missing baseline verdict" true
    (row.B.Gate.g_verdict = B.Gate.Missing_baseline
    && row.B.Gate.g_base = None);
  check_bool "missing baseline not fatal" true (B.Gate.ok res);
  (* a baseline bench absent from the run IS fatal: deleting a bench
     must force a baseline refresh, not silently disarm its gate *)
  let res =
    B.Gate.compare_reports
      ~baseline:
        (mk_report [ mk_bench "t/kept" [ sec 0.1 ]; mk_bench "t/gone" [ sec 0.1 ] ])
      (mk_report [ mk_bench "t/kept" [ sec 0.1 ] ])
  in
  check_bool "vanished bench fatal" true
    ((not (B.Gate.ok res)) && res.B.Gate.vanished = [ "t/gone" ]);
  check_bool "vanished named in summary" true
    (contains (B.Gate.render res) "VANISHED"
    && contains (B.Gate.render res) "t/gone")

(* ---------- Harness registry ---------- *)

let harness_registry () =
  B.Harness.clear ();
  let budget =
    { B.Harness.warmup = 2; min_iters = 4; max_iters = 4; max_seconds = 1.0 }
  in
  let calls_a = ref 0 and calls_b = ref 0 and calls_old = ref 0 in
  B.Harness.register ~name:"t/a" ~budget (fun () -> incr calls_old);
  (* re-registering a name replaces the entry *)
  B.Harness.register ~name:"t/a" ~budget ~items_per_iter:100. (fun () ->
      incr calls_a);
  B.Harness.register ~name:"t/b" ~budget ~gate_time:false (fun () ->
      incr calls_b);
  let r = B.Harness.run_all ~suite:"t" () in
  B.Harness.clear ();
  check_int "old entry replaced" 0 !calls_old;
  check_int "a: warmup + iters" 6 !calls_a;
  check_int "b: warmup + iters" 6 !calls_b;
  check_bool "both benches present in order" true
    (List.map (fun b -> b.B.Report.b_name) r.B.Report.r_benches
    = [ "t/a"; "t/b" ]);
  let a = Option.get (B.Report.find_bench r "t/a") in
  check_int "measured iters recorded" 4 a.B.Report.b_iters;
  check_int "warmup recorded" 2 a.B.Report.b_warmup;
  let p50 = Option.get (B.Report.find_metric a "seconds_p50") in
  check_bool "seconds_p50 gated by default" true p50.B.Report.m_gated;
  check_bool "items_per_sec emitted ungated" true
    (match B.Report.find_metric a "items_per_sec" with
    | Some m -> (not m.B.Report.m_gated) && m.B.Report.m_better = B.Report.Higher
    | None -> false);
  let b = Option.get (B.Report.find_bench r "t/b") in
  check_bool "gate_time:false respected" true
    (match B.Report.find_metric b "seconds_p50" with
    | Some m -> not m.B.Report.m_gated
    | None -> false)

(* ---------- end-to-end: measured baseline vs slowed rerun ---------- *)

let spin seconds () =
  let t0 = B.Clock.now_ns () in
  while B.Clock.since_s t0 < seconds do
    ignore (Sys.opaque_identity 0)
  done

(* Threshold 100% instead of the default 25%: a busy-wait's p50 can
   legitimately wobble tens of percent on a loaded CI box, and this
   test must never flake. The 6x-slowed run lands at +500%, far past
   either gate; the same-speed rerun stays far under. *)
let e2e_measure s =
  let budget =
    { B.Harness.warmup = 1; min_iters = 3; max_iters = 3; max_seconds = 5.0 }
  in
  mk_report
    [ B.Harness.bench_of_measured ~name:"e2e/spin" ~threshold:1.0
        (B.Harness.measure ~budget (spin s)) ]

let e2e_gate () =
  let path = Filename.temp_file "umrs_bench_base" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with _ -> ())
  @@ fun () ->
  B.Report.save ~path (e2e_measure 0.008);
  let baseline =
    match B.Report.load ~path with
    | Ok r -> r
    | Error e -> Alcotest.failf "baseline load: %s" e
  in
  (* deliberately slowed: 6x the work must trip the gate *)
  let res = B.Gate.compare_reports ~baseline (e2e_measure 0.048) in
  check_bool "slowed run fails the gate" false (B.Gate.ok res);
  let row = find_row res "e2e/spin" "seconds_p50" in
  check_bool "verdict is regressed" true
    (row.B.Gate.g_verdict = B.Gate.Regressed);
  check_bool "delta is a large slowdown" true (row.B.Gate.g_delta_pct > 150.);
  let table = B.Gate.render res in
  check_bool "table names the bench" true (contains table "e2e/spin");
  check_bool "table shouts the verdict" true (contains table "REGRESSED");
  check_bool "summary says FAILED" true (contains table "gate FAILED");
  check_bool "markdown bolds the regression" true
    (contains (B.Gate.render_markdown res) "**REGRESSED**");
  (* the same workload again: within threshold, the gate passes *)
  let res = B.Gate.compare_reports ~baseline (e2e_measure 0.008) in
  check_bool "within-threshold rerun passes" true (B.Gate.ok res);
  check_bool "summary says OK" true (contains (B.Gate.render res) "gate OK")

let suite =
  [ Gen.prop "quantile matches oracle (ties)" tied_sample matches_oracle;
    Gen.prop "quantile matches oracle (continuous)" continuous_sample
      matches_oracle;
    Alcotest.test_case "quantile small-n edges" `Quick quantile_edges;
    Gen.prop ~count:50 "report round-trips" report_arb round_trips;
    Alcotest.test_case "report rejects malformed" `Quick report_rejects;
    Alcotest.test_case "history append/load + corrupt tail" `Quick
      history_append_load;
    Alcotest.test_case "non-finite metrics round-trip" `Quick
      non_finite_round_trip;
    Alcotest.test_case "gate verdicts" `Quick gate_verdicts;
    Alcotest.test_case "gate missing/vanished benches" `Quick
      gate_missing_and_vanished;
    Alcotest.test_case "harness registry" `Quick harness_registry;
    Alcotest.test_case "e2e slowed run trips the gate" `Quick e2e_gate ]
