type better = Higher | Lower

type metric = {
  m_name : string;
  m_value : float;
  m_unit : string;
  m_better : better;
  m_gated : bool;
  m_threshold : float option;
}

type bench = {
  b_name : string;
  b_iters : int;
  b_warmup : int;
  b_seconds : float;
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

let schema = "umrs/bench/v1"

let metric ?(unit_ = "") ?(better = Lower) ?(gated = false) ?threshold name
    value =
  { m_name = name; m_value = value; m_unit = unit_; m_better = better;
    m_gated = gated; m_threshold = threshold }

(* The commit key for history lines and report envelopes. CI exports
   GITHUB_SHA; locally the smokes run from _build inside the work tree,
   so the git probe works there too. Best-effort: a missing git is
   "unknown", never a failure. *)
let git_commit () =
  match Sys.getenv_opt "GITHUB_SHA" with
  | Some s when s <> "" -> s
  | _ -> (
    match
      let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
      let line = try input_line ic with End_of_file -> "" in
      (line, Unix.close_process_in ic)
    with
    | line, Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
    | exception _ -> "unknown")

let machine () =
  [ ("hostname", Json.Str (try Unix.gethostname () with _ -> "unknown"));
    ("cores", Json.Num (float_of_int (Domain.recommended_domain_count ())));
    ("os", Json.Str Sys.os_type);
    ("ocaml", Json.Str Sys.ocaml_version);
    ("word_size", Json.Num (float_of_int Sys.word_size)) ]

let make ~suite ?(context = []) benches =
  { r_suite = suite; r_created = Unix.time (); r_commit = git_commit ();
    r_machine = machine (); r_context = context; r_benches = benches }

let find_bench t name =
  List.find_opt (fun b -> b.b_name = name) t.r_benches

let find_metric b name =
  List.find_opt (fun m -> m.m_name = name) b.b_metrics

(* Values render in their unit's natural scale so a table is legible at
   a glance: seconds in us/ms/s, rates and ratios as plain numbers. *)
let show_value unit_ v =
  if unit_ = "s" then begin
    if Float.abs v < 0.001 then Printf.sprintf "%.1fus" (1e6 *. v)
    else if Float.abs v < 1.0 then Printf.sprintf "%.2fms" (1e3 *. v)
    else Printf.sprintf "%.3fs" v
  end
  else if Float.is_integer v && Float.abs v < 1e9 then
    Printf.sprintf "%.0f%s" v (if unit_ = "" then "" else " " ^ unit_)
  else Printf.sprintf "%.1f%s" v (if unit_ = "" then "" else " " ^ unit_)

(* ---------- encoding ---------- *)

let metric_to_json m =
  Json.Obj
    ([ ("name", Json.Str m.m_name); ("value", Json.Num m.m_value);
       ("unit", Json.Str m.m_unit);
       ("better",
        Json.Str (match m.m_better with Higher -> "higher" | Lower -> "lower"));
       ("gated", Json.Bool m.m_gated) ]
    @
    match m.m_threshold with
    | None -> []
    | Some v -> [ ("threshold", Json.Num v) ])

let bench_to_json b =
  Json.Obj
    [ ("name", Json.Str b.b_name);
      ("iterations", Json.Num (float_of_int b.b_iters));
      ("warmup", Json.Num (float_of_int b.b_warmup));
      ("seconds", Json.Num b.b_seconds);
      ("metrics", Json.Arr (List.map metric_to_json b.b_metrics)) ]

let to_json t =
  Json.Obj
    [ ("schema", Json.Str schema); ("suite", Json.Str t.r_suite);
      ("created_unix", Json.Num t.r_created); ("commit", Json.Str t.r_commit);
      ("machine", Json.Obj t.r_machine); ("context", Json.Obj t.r_context);
      ("benches", Json.Arr (List.map bench_to_json t.r_benches)) ]

(* ---------- decoding ---------- *)

let ( let* ) = Result.bind

let field j name conv ~what =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "report: missing or mistyped %s.%s" what name)

let metric_of_json j =
  let* name = field j "name" Json.to_str ~what:"metric" in
  let* value = field j "value" Json.to_num ~what:"metric" in
  let* unit_ = field j "unit" Json.to_str ~what:"metric" in
  let* better_s = field j "better" Json.to_str ~what:"metric" in
  let* better =
    match better_s with
    | "higher" -> Ok Higher
    | "lower" -> Ok Lower
    | s -> Error (Printf.sprintf "report: bad better %S" s)
  in
  let gated =
    match Json.member "gated" j with Some (Json.Bool b) -> b | _ -> false
  in
  let threshold = Option.bind (Json.member "threshold" j) Json.to_float in
  Ok
    { m_name = name; m_value = value; m_unit = unit_; m_better = better;
      m_gated = gated; m_threshold = threshold }

let rec map_result f = function
  | [] -> Ok []
  | x :: xs ->
    let* y = f x in
    let* ys = map_result f xs in
    Ok (y :: ys)

let bench_of_json j =
  let* name = field j "name" Json.to_str ~what:"bench" in
  let* iters = field j "iterations" Json.to_int ~what:"bench" in
  let* warmup = field j "warmup" Json.to_int ~what:"bench" in
  let* seconds = field j "seconds" Json.to_float ~what:"bench" in
  let* metrics_j = field j "metrics" Json.to_list ~what:"bench" in
  let* metrics = map_result metric_of_json metrics_j in
  Ok
    { b_name = name; b_iters = iters; b_warmup = warmup;
      b_seconds = seconds; b_metrics = metrics }

let of_json j =
  let* s = field j "schema" Json.to_str ~what:"report" in
  let* () =
    if s = schema then Ok ()
    else Error (Printf.sprintf "report: schema %S, want %S" s schema)
  in
  let* suite = field j "suite" Json.to_str ~what:"report" in
  let* created = field j "created_unix" Json.to_float ~what:"report" in
  let* commit = field j "commit" Json.to_str ~what:"report" in
  let machine =
    Option.value (Option.bind (Json.member "machine" j) Json.obj) ~default:[]
  in
  let context =
    Option.value (Option.bind (Json.member "context" j) Json.obj) ~default:[]
  in
  let* benches_j = field j "benches" Json.to_list ~what:"report" in
  let* benches = map_result bench_of_json benches_j in
  Ok
    { r_suite = suite; r_created = created; r_commit = commit;
      r_machine = machine; r_context = context; r_benches = benches }

(* ---------- files ---------- *)

let save ~path t =
  let oc = open_out path in
  output_string oc (Json.to_string (to_json t));
  output_char oc '\n';
  close_out oc

let load ~path =
  match
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  with
  | exception Sys_error e -> Error (Printf.sprintf "report: %s" e)
  | s ->
    let* j = Json.parse s in
    of_json j
