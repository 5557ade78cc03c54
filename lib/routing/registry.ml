let universal () =
  [
    Table_scheme.scheme;
    Compressed_tables.scheme;
    Interval_routing.scheme;
    Interval_routing.scheme_identity;
    Landmark_scheme.scheme;
    Tz_scheme.scheme;
    Spanner_scheme.scheme ~k:2;
    Spanner_scheme.scheme ~k:3;
    Hierarchical_scheme.scheme;
    Tree_cover_scheme.scheme;
  ]

let find name =
  List.find_opt (fun s -> s.Scheme.name = name) (universal ())

let names () = List.map (fun s -> s.Scheme.name) (universal ())

let compare_on ?dist ~graph_name g schemes =
  let dist =
    match dist with Some d -> d | None -> Umrs_graph.Bfs.all_pairs g
  in
  List.map (fun s -> Scheme.evaluate ~dist s ~graph_name g) schemes

let csv_header =
  "scheme,graph,n,m,mem_local_bits,mem_global_bits,pairs,method,mean,p50,p95,p99,max"

let to_csv_row e =
  let s = e.Scheme.stretch in
  Printf.sprintf "%s,%s,%d,%d,%d,%d,%d,%s,%.6f,%.6f,%.6f,%.6f,%.6f"
    e.Scheme.scheme_name e.Scheme.graph_name e.Scheme.order e.Scheme.edges
    e.Scheme.mem_local_bits e.Scheme.mem_global_bits s.Stretch_dist.ds_pairs
    (if s.Stretch_dist.ds_exact then "exact" else "sampled")
    s.Stretch_dist.ds_mean s.Stretch_dist.ds_p50 s.Stretch_dist.ds_p95
    s.Stretch_dist.ds_p99 s.Stretch_dist.ds_max

let to_csv evals =
  String.concat "\n" (csv_header :: List.map to_csv_row evals) ^ "\n"
