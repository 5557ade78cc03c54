(* Self-tests of the benchmark's own arithmetic and measurements:
   - self time on hand-built nested spans;
   - the tail rule: a percentile is reported only with at least 10
     samples beyond it, otherwise the run is under-sampled;
   - peak RSS covers a child process, read while it is still alive;
   - the kernel's CPU list format;
   - calibration: a long unit takes kernel runs inside it, whose time is
     left out of the unit's, and [~sample:false] takes none. *)

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("FAIL: " ^ s); exit 1) fmt
let close a b = Float.abs (a -. b) < 1e-9

let span id parent name t0 t1 =
  { Trace.id; parent; name; req = -1; t0 = Int64.of_int t0; t1 = Int64.of_int t1 }

let test_self_time () =
  (* times in ns: a [0,1000] holds b [100,400] and c [300,600], which
     overlap; b holds d [150,200]; e [900,1200] runs past a's end *)
  let spans =
    [ span 0 (-1) "a" 0 1000; span 1 0 "b" 100 400; span 2 0 "c" 300 600;
      span 3 1 "d" 150 200; span 4 0 "e" 900 1200; span 5 (-1) "a" 2000 2100 ]
  in
  let self = Trace.self_times spans in
  let expect id ns =
    let got = Hashtbl.find self id in
    if not (close got (float_of_int ns *. 1e-9)) then
      fail "self time of span %d: %g s, expected %d ns" id got ns
  in
  (* a: 1000 - |[100,600] u [900,1000]| = 1000 - 600 *)
  expect 0 400;
  expect 1 250;
  expect 2 300;
  expect 3 50;
  expect 4 300;
  let aggs = Trace.aggregate spans in
  let a = Hashtbl.find aggs "a" in
  if a.Trace.calls <> 2 || not (close a.Trace.self_s 500e-9) then
    fail "aggregate a: %d calls, %g s" a.Trace.calls a.Trace.self_s;
  (* the two top-level a spans cover 1100 ns *)
  let top = Trace.top_level_s spans in
  if not (close top 1100e-9) then fail "top-level spans cover %g s, expected 1100 ns" top

let test_recorded_nesting () =
  Trace.reset ();
  Trace.enabled := true;
  Trace.span "outer" (fun () -> Trace.span "inner" (fun () -> ignore (Sys.opaque_identity 1)));
  Trace.enabled := false;
  Trace.span "untraced" ignore;
  match Trace.spans () with
  | [ inner; outer ] when inner.Trace.name = "inner" && outer.Trace.name = "outer" ->
    if inner.Trace.parent <> outer.Trace.id || outer.Trace.parent <> -1 then
      fail "recorded parents: inner %d, outer %d" inner.Trace.parent outer.Trace.parent
  | l -> fail "recorded %d spans, expected inner then outer" (List.length l)

let test_tail_rule () =
  let ramp n = Array.init n (fun i -> float_of_int (i + 1)) in
  let under f = match f () with _ -> false | exception Stat.Under_sampled _ -> true in
  let p99 = Stat.tail ~what:"t" ~pct:99.0 (ramp 1000) in
  if p99 <> 990.0 then fail "p99 of 1..1000 is %g" p99;
  if not (under (fun () -> Stat.tail ~what:"t" ~pct:99.0 (ramp 999))) then
    fail "p99 of 999 samples (9 beyond) was reported";
  if not (under (fun () -> Stat.tail ~what:"t" ~pct:99.0 [||])) then
    fail "p99 of no samples was reported";
  if Stat.tail ~what:"t" ~pct:90.0 (ramp 100) <> 90.0 then fail "p90 of 1..100";
  if not (under (fun () -> Stat.tail ~what:"t" ~pct:90.0 (ramp 99))) then
    fail "p90 of 99 samples (9 beyond) was reported"

let test_cpu_list () =
  if Cpu.parse_list "0-1,3\n" <> [| 0; 1; 3 |] then fail "Cpu.parse_list \"0-1,3\"";
  if Cpu.parse_list "2" <> [| 2 |] then fail "Cpu.parse_list \"2\""

let test_calibration () =
  (* a unit that keeps the CPU busy for 0.3 s, the kernel runs inside it
     included *)
  let spin () =
    let c0 = Sys.time () in
    while Sys.time () -. c0 < 0.3 do
      ignore (Sys.opaque_identity (Array.make 16 0))
    done
  in
  let (), t = Calib.time spin in
  let runs = List.length !Calib.inside and inside_s = Calib.sum !Calib.inside in
  if runs < 2 then fail "a 0.3 s unit took %d kernel runs inside, expected at least 2" runs;
  let unit_s = t.Calib.ref_s *. t.Calib.slowdown in
  if not (unit_s < 0.3 && Float.abs (unit_s +. inside_s -. 0.3) < 0.02) then
    fail "unit %g s + kernel runs inside %g s, expected 0.3 s" unit_s inside_s;
  let (), _ = Calib.time ~sample:false spin in
  if !Calib.inside <> [] then fail "~sample:false took kernel runs inside the unit"

(* A child that touches [mib] MiB and waits to be stopped. *)
let hog mib =
  let b = Bytes.make (mib * 1024 * 1024) 'x' in
  while true do
    Unix.sleepf 0.05;
    ignore (Sys.opaque_identity (Bytes.get b 0))
  done

let test_rss_includes_children () =
  let mib = 96 in
  let log = Filename.temp_file "perfbench_hog" ".log" in
  let pid = Proc.spawn ~log Sys.executable_name [ "--hog"; string_of_int mib ] in
  let deadline = Unix.gettimeofday () +. 20.0 in
  while Stat.vmhwm_mib pid < float_of_int mib && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.02
  done;
  let self = Stat.vmhwm_mib 0 in
  let peak = Stat.peak_rss_mib ~children:[ pid ] in
  if self >= float_of_int mib then fail "test process itself holds %g MiB" self;
  if peak < float_of_int mib then fail "peak %g MiB misses the %d MiB child" peak mib;
  Proc.stop pid;
  Sys.remove log;
  (* after the drain the child's peak is gone: it must be read before *)
  match Stat.vmhwm_mib pid with
  | _ -> fail "read the VmHWM of a reaped child"
  | exception Sys_error _ -> ()

let () =
  match Sys.argv with
  | [| _; "--hog"; mib |] -> hog (int_of_string mib)
  | _ ->
    test_self_time ();
    test_recorded_nesting ();
    test_tail_rule ();
    test_cpu_list ();
    test_calibration ();
    test_rss_includes_children ();
    print_endline "perfbench self-tests: ok"
