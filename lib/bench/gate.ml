type verdict = Pass | Improved | Regressed | Floor_skipped | Missing_baseline

type row = {
  g_bench : string;
  g_metric : string;
  g_unit : string;
  g_base : float option;
  g_current : float;
  g_delta_pct : float;
  g_threshold : float;
  g_verdict : verdict;
}

type config = { threshold : float; floor_seconds : float }

let default_config = { threshold = 0.25; floor_seconds = 0.005 }

type result = { rows : row list; vanished : string list; config : config }

let judge cfg (m : Report.metric) ~base =
  let thr = Option.value m.Report.m_threshold ~default:cfg.threshold in
  let cur = m.Report.m_value in
  let delta_pct =
    if base = 0.0 then 0.0 else (cur -. base) /. base *. 100.0
  in
  let floored =
    m.Report.m_unit = "s"
    && Float.max base cur < cfg.floor_seconds
  in
  let verdict =
    (* nan (a null read back from JSON) or inf compares false against
       everything, so it would pass any bound: fail instead *)
    if not (Float.is_finite base && Float.is_finite cur) then Regressed
    else if floored then Floor_skipped
    else begin
      match m.Report.m_better with
      | Report.Higher ->
        if cur < (1.0 -. thr) *. base then Regressed
        else if cur > base then Improved
        else Pass
      | Report.Lower ->
        if cur > (1.0 +. thr) *. base then Regressed
        else if cur < base then Improved
        else Pass
    end
  in
  (delta_pct, thr, verdict)

let compare_reports ?(config = default_config) ~(baseline : Report.t)
    (current : Report.t) =
  let rows =
    List.concat_map
      (fun (b : Report.bench) ->
        let base_bench = Report.find_bench baseline b.Report.b_name in
        List.filter_map
          (fun (m : Report.metric) ->
            if not m.Report.m_gated then None
            else begin
              let mk ?base ~delta ~thr verdict =
                Some
                  { g_bench = b.Report.b_name;
                    g_metric = m.Report.m_name;
                    g_unit = m.Report.m_unit;
                    g_base = base;
                    g_current = m.Report.m_value;
                    g_delta_pct = delta;
                    g_threshold = thr;
                    g_verdict = verdict }
              in
              match
                Option.bind base_bench (fun bb -> Report.find_metric bb m.Report.m_name)
              with
              | None ->
                mk ~delta:0.0
                  ~thr:(Option.value m.Report.m_threshold
                          ~default:config.threshold)
                  Missing_baseline
              | Some bm ->
                let base = bm.Report.m_value in
                let delta, thr, verdict = judge config m ~base in
                mk ~base ~delta ~thr verdict
            end)
          b.Report.b_metrics)
      current.Report.r_benches
  in
  let vanished =
    List.filter_map
      (fun (b : Report.bench) ->
        match Report.find_bench current b.Report.b_name with
        | Some _ -> None
        | None -> Some b.Report.b_name)
      baseline.Report.r_benches
  in
  { rows; vanished; config }

let ok r =
  r.vanished = []
  && not (List.exists (fun row -> row.g_verdict = Regressed) r.rows)

(* ---------- rendering ---------- *)

let verdict_label = function
  | Pass -> "pass"
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Floor_skipped -> "floor-skip"
  | Missing_baseline -> "no-baseline"

let row_cells row =
  [ row.g_bench; row.g_metric;
    (match row.g_base with
    | None -> "-"
    | Some b -> Report.show_value row.g_unit b);
    Report.show_value row.g_unit row.g_current;
    (match row.g_base with
    | None -> "-"
    | Some _ -> Printf.sprintf "%+.1f%%" row.g_delta_pct);
    Printf.sprintf "%.0f%%" (100. *. row.g_threshold);
    verdict_label row.g_verdict ]

let header = [ "bench"; "metric"; "baseline"; "current"; "delta"; "gate"; "verdict" ]

let summary_line r =
  let count v = List.length (List.filter (fun x -> x.g_verdict = v) r.rows) in
  Printf.sprintf
    "%s: %d gated metric(s): %d pass, %d improved, %d regressed, %d \
     floor-skipped, %d without baseline%s"
    (if ok r then "gate OK" else "gate FAILED")
    (List.length r.rows)
    (count Pass) (count Improved) (count Regressed) (count Floor_skipped)
    (count Missing_baseline)
    (match r.vanished with
    | [] -> ""
    | v ->
      Printf.sprintf "; %d baseline bench(es) VANISHED from the run: %s"
        (List.length v) (String.concat ", " v))

let render r =
  let rows = List.map row_cells r.rows in
  let widths =
    List.fold_left
      (fun ws cells -> List.map2 (fun w c -> Stdlib.max w (String.length c)) ws cells)
      (List.map String.length header)
      rows
  in
  let line cells =
    String.concat "  "
      (List.map2
         (fun w c -> Printf.sprintf "%-*s" w c)
         widths cells)
  in
  let b = Buffer.create 512 in
  Buffer.add_string b (line header);
  Buffer.add_char b '\n';
  Buffer.add_string b
    (String.concat "  " (List.map (fun w -> String.make w '-') widths));
  Buffer.add_char b '\n';
  List.iter
    (fun cells ->
      Buffer.add_string b (line cells);
      Buffer.add_char b '\n')
    rows;
  Buffer.add_string b (summary_line r);
  Buffer.add_char b '\n';
  Buffer.contents b

let render_markdown r =
  let b = Buffer.create 512 in
  let cells l = "| " ^ String.concat " | " l ^ " |\n" in
  Buffer.add_string b (cells header);
  Buffer.add_string b (cells (List.map (fun _ -> "---") header));
  List.iter
    (fun row ->
      let c = row_cells row in
      let c =
        if row.g_verdict = Regressed then
          List.map (fun s -> "**" ^ s ^ "**") c
        else c
      in
      Buffer.add_string b (cells c))
    r.rows;
  Buffer.add_char b '\n';
  Buffer.add_string b (summary_line r);
  Buffer.add_char b '\n';
  Buffer.contents b
