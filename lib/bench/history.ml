type entry = {
  h_ts : float;
  h_commit : string;
  h_suite : string;
  h_bench : string;
  h_seconds : float;
  h_metrics : (string * float) list;
}

let default_path = "BENCH_HISTORY.jsonl"

let resolved_path ?path () =
  match path with
  | Some p -> p
  | None ->
    Option.value (Sys.getenv_opt "UMRS_BENCH_HISTORY") ~default:default_path

let line_of_bench (r : Report.t) (b : Report.bench) =
  Json.Obj
    [ ("ts", Json.Num r.Report.r_created);
      ("commit", Json.Str r.Report.r_commit);
      ("suite", Json.Str r.Report.r_suite);
      ("bench", Json.Str b.Report.b_name);
      ("seconds", Json.Num b.Report.b_seconds);
      ("metrics",
       Json.Obj
         (List.map
            (fun (m : Report.metric) ->
              (m.Report.m_name, Json.Num m.Report.m_value))
            b.Report.b_metrics)) ]

let append ?path (r : Report.t) =
  let path = resolved_path ?path () in
  match
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  with
  | exception Unix.Unix_error (e, _, _) ->
    Printf.eprintf "bench history: cannot append to %s: %s\n%!" path
      (Unix.error_message e)
  | fd ->
    Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
    @@ fun () ->
    List.iter
      (fun b ->
        let line = Json.to_string ~indent:0 (line_of_bench r b) ^ "\n" in
        let bytes = Bytes.of_string line in
        (* one write per line: O_APPEND makes whole-line interleaving *)
        ignore (Unix.write fd bytes 0 (Bytes.length bytes)))
      r.Report.r_benches

let entry_of_line line =
  match Json.parse line with
  | Error _ -> None
  | Ok j ->
    let ( let* ) = Option.bind in
    let* ts = Option.bind (Json.member "ts" j) Json.to_float in
    let* commit = Option.bind (Json.member "commit" j) Json.to_str in
    let* suite = Option.bind (Json.member "suite" j) Json.to_str in
    let* bench = Option.bind (Json.member "bench" j) Json.to_str in
    let* seconds = Option.bind (Json.member "seconds" j) Json.to_float in
    let* metrics_j = Option.bind (Json.member "metrics" j) Json.obj in
    let* metrics =
      List.fold_right
        (fun (k, v) acc ->
          let* acc = acc in
          let* v = Json.to_num v in
          Some ((k, v) :: acc))
        metrics_j (Some [])
    in
    Some
      { h_ts = ts; h_commit = commit; h_suite = suite; h_bench = bench;
        h_seconds = seconds; h_metrics = metrics }

let load ?path () =
  let path = resolved_path ?path () in
  if not (Sys.file_exists path) then ([], 0)
  else begin
    let ic = open_in path in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let entries = ref [] and skipped = ref 0 in
    (try
       while true do
         let line = input_line ic in
         if String.trim line <> "" then
           match entry_of_line line with
           | Some e -> entries := e :: !entries
           | None -> incr skipped
       done
     with End_of_file -> ());
    (List.rev !entries, !skipped)
  end
