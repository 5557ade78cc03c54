open Umrs_graph

type built = {
  rf : Routing_function.t;
  local_encoding : Graph.vertex -> Umrs_bitcode.Bitbuf.t;
  description : string;
}

type t = {
  name : string;
  stretch_bound : float option;
  build : Graph.t -> built;
}

let mem_at b v = Umrs_bitcode.Bitbuf.length (b.local_encoding v)

let mem_profile b =
  Array.init (Graph.order b.rf.Routing_function.graph) (mem_at b)

let memory b =
  let profile = mem_profile b in
  (Array.fold_left max 0 profile, Array.fold_left ( + ) 0 profile)

let mem_local b = fst (memory b)
let mem_global b = snd (memory b)

type evaluation = {
  scheme_name : string;
  graph_name : string;
  order : int;
  edges : int;
  mem_local_bits : int;
  mem_global_bits : int;
  stretch : Stretch_dist.summary;
}

let evaluate ?dist scheme ~graph_name g =
  let b = scheme.build g in
  let mem_local_bits, mem_global_bits = memory b in
  let e =
    {
      scheme_name = scheme.name;
      graph_name;
      order = Graph.order g;
      edges = Graph.size g;
      mem_local_bits;
      mem_global_bits;
      stretch = Stretch_dist.exact ?dist b.rf;
    }
  in
  if Telemetry.enabled () then
    Telemetry.emit "scheme.evaluate"
      [ ("scheme", Telemetry.Str e.scheme_name);
        ("graph", Telemetry.Str e.graph_name);
        ("order", Telemetry.Int e.order);
        ("edges", Telemetry.Int e.edges);
        ("mem_local_bits", Telemetry.Int e.mem_local_bits);
        ("mem_global_bits", Telemetry.Int e.mem_global_bits);
        ("stretch_max", Telemetry.Float e.stretch.Stretch_dist.ds_max);
        ("stretch_mean", Telemetry.Float e.stretch.Stretch_dist.ds_mean);
        ("stretch_p50", Telemetry.Float e.stretch.Stretch_dist.ds_p50);
        ("stretch_p95", Telemetry.Float e.stretch.Stretch_dist.ds_p95)
      ];
  e

let pp_evaluation fmt e =
  Format.fprintf fmt
    "%-18s %-18s n=%-5d m=%-6d local=%-8d global=%-10d stretch=%.3f (mean \
     %.3f p50 %.3f p95 %.3f)"
    e.scheme_name e.graph_name e.order e.edges e.mem_local_bits
    e.mem_global_bits e.stretch.Stretch_dist.ds_max
    e.stretch.Stretch_dist.ds_mean e.stretch.Stretch_dist.ds_p50
    e.stretch.Stretch_dist.ds_p95
