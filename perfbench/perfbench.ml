(* The repository benchmark: one workload per invocation.

     perfbench --workload NAME --routing-lab PATH
               [--seed N] [--seconds S] [--trace 0|1]

   Prints one line per metric (name, value, unit, sample count and what
   it measures on this workload), then, as the last line of stdout, one
   JSON object {"correct", "attempted", "failed", "metrics"}. With
   --trace 0 the metrics are the end-to-end ones; with --trace 1 the
   workload runs untraced and then traced, and the metrics are the
   per-layer ones. Any wrong answer, under-sampled tail or trace
   coverage below the stated tolerance exits 1 without a result. *)

open Common

let workloads =
  [ ("paper-pipeline", (Paper.e2e, Paper.traced));
    ("compact-routing", (Compact.e2e, Compact.traced));
    ("serve-cluster", (Serve_cluster.e2e, Serve_cluster.traced)) ]

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* Every catalogue name exactly once: a traced workload reports 0 for a
   layer it bypasses; an end-to-end run must measure all of them. *)
let complete ~traced metrics =
  let catalogue = if traced then per_layer else end_to_end in
  List.iter
    (fun m ->
      if not (List.mem_assoc m.name catalogue) then failwith ("unknown metric " ^ m.name);
      if not (Float.is_finite m.value) then failwith ("non-finite metric " ^ m.name))
    metrics;
  List.map
    (fun (name, unit) ->
      match List.filter (fun m -> m.name = name) metrics with
      | [ m ] -> (m, unit)
      | [] when traced -> (metric name 0.0 ~samples:0 ~what:"layer bypassed", unit)
      | [] -> failwith ("missing end-to-end metric " ^ name)
      | _ -> failwith ("metric reported twice: " ^ name))
    catalogue

let report ~traced o =
  let rows = complete ~traced o.metrics in
  List.iter
    (fun (m, unit) ->
      Printf.printf "%-34s %16.6f %-6s n=%-7d %s\n" m.name m.value unit m.samples m.what)
    rows;
  let module J = Umrs_bench.Json in
  print_endline
    (J.to_string ~indent:0
       (J.Obj
          [ ("correct", J.Bool true);
            ("attempted", J.Num (float_of_int o.attempted));
            ("failed", J.Num (float_of_int o.failed));
            ( "metrics",
              J.Obj
                (List.map
                   (fun (m, unit) ->
                     (m.name, J.Obj [ ("value", J.Num m.value); ("unit", J.Str unit) ]))
                   rows) ) ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let routing_lab = ref "" in
  let spec =
    [ ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N input seed (default 1; 2 confirms a claim)");
      ("--seconds", Arg.Set_float seconds, "S measuring budget of the run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end run, or untraced + traced run");
      ("--routing-lab", Arg.Set_string routing_lab, "PATH the routing_lab binary") ]
  in
  let usage = "perfbench --workload NAME --routing-lab PATH [options]" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 1) fmt in
  let e2e, traced =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> fail "unknown workload %S (%s)" !workload (String.concat ", " (List.map fst workloads))
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if not (Sys.file_exists !routing_lab) then fail "no routing_lab binary at %S" !routing_lab;
  if !seconds <= 0.0 then fail "--seconds must be positive";
  let ctx =
    { seed = !seed; seconds = !seconds; routing_lab = !routing_lab;
      work = Filename.concat "_perfbench" !workload }
  in
  rm_rf ctx.work;
  mkdir_p ctx.work;
  (* a stopped run still stops its servers (Proc's at_exit hook) *)
  List.iter (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2))) [ Sys.sigterm; Sys.sigint ];
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match
    if !trace = 0 then (e2e ctx, None)
    else begin
      let o, spans = traced ctx in
      let path = Filename.concat ctx.work "trace.jsonl" in
      Trace.write_jsonl path spans;
      (o, Some path)
    end
  with
  | o, trace_file ->
    (match List.find_opt (fun m -> m.name = "trace.coverage") o.metrics with
    | Some m when m.value < coverage_tolerance ->
      fail "trace.coverage %.3f is below the tolerance %.2f" m.value coverage_tolerance
    | _ -> ());
    Option.iter (fun f -> Printf.printf "spans written to %s\n" f) trace_file;
    report ~traced:(!trace = 1) o;
    exit 0
  | exception Wrong msg -> fail "WRONG ANSWER on %s: %s" !workload msg
  | exception Stat.Under_sampled msg -> fail "under-sampled: %s" msg
