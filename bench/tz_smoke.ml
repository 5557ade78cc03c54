(* Thorup-Zwick smoke benchmark (dune alias @tz-smoke).

   Hard correctness gates first (any failure is fatal): on seeded
   Barabasi-Albert and Chung-Lu power-law graphs the TZ scheme must
   deliver every pair within stretch 3, its average stretch on the BA
   graph must sit well under 1.5 (the Krioukov/Fall/Yang regime), its
   global memory must stay within the ~n^(3/2) TZ bound, and both its
   local and global footprints must undercut the Cowen-style landmark
   scheme on the same graph. Then build and routing throughput are
   timed through the shared Umrs_bench harness and gated against the
   committed BENCH_tz.json baseline. *)

open Umrs_graph
open Umrs_routing
module B = Umrs_bench

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("tz_smoke: " ^ s);
      exit 1)
    fmt

let check_graph name g ~mean_limit =
  let n = Graph.order g in
  let b = Tz_scheme.build g in
  let d = Stretch_dist.exact b.Scheme.rf in
  if d.Stretch_dist.ds_max > 3.0 +. 1e-9 then
    die "%s: max stretch %.4f exceeds the stretch-3 guarantee" name
      d.Stretch_dist.ds_max;
  (match mean_limit with
  | Some lim ->
    if d.Stretch_dist.ds_mean >= lim then
      die "%s: mean stretch %.4f not below %.2f" name d.Stretch_dist.ds_mean
        lim
  | None -> ());
  (* the TZ memory bound: O(n^(3/2)) table entries of O(log n) bits *)
  let log2n = Umrs_bitcode.Codes.ceil_log2 (max 2 n) in
  let bound = 12 * int_of_float (float_of_int n ** 1.5) * log2n in
  (* one encoding of every router per scheme, for both memory columns *)
  let local, global = Scheme.memory b in
  if global > bound then
    die "%s: global memory %d bits above the TZ bound %d" name global bound;
  let lm_local, lm_global = Scheme.memory (Landmark_scheme.build g) in
  if global >= lm_global then
    die "%s: global memory %d not below landmark-3's %d" name global lm_global;
  if local >= lm_local then
    die "%s: local memory %d not below landmark-3's %d" name local lm_local;
  Printf.printf
    "%-14s n=%d mean=%.3f p50=%.3f p95=%.3f max=%.3f local=%d global=%d \
     (landmark-3: %d/%d)\n"
    name n d.Stretch_dist.ds_mean d.Stretch_dist.ds_p50
    d.Stretch_dist.ds_p95 d.Stretch_dist.ds_max local global lm_local
    lm_global;
  (b, d, global)

(* Words per vertex per landmark tree: what the prepared core holds
   beside its graph (Obj.reachable_words), over n times the tree
   count. The vertex arrays and the cluster tables ride along, so this
   sits a little above the trees' own 2 words. *)
let words_per_vertex_tree g d =
  let words = Obj.reachable_words (Obj.repr d) - Obj.reachable_words (Obj.repr g) in
  float_of_int words
  /. float_of_int (Graph.order g * Array.length (Landmark_core.landmarks d))

let () =
  let st = Random.State.make [| 0x72; 0x5EED |] in
  let ba = Generators.barabasi_albert st ~n:256 ~m:2 in
  let pl = Generators.chung_lu st ~n:256 ~exponent:2.5 in
  let b_ba, d_ba, global_ba = check_graph "ba-256" ba ~mean_limit:(Some 1.5) in
  let _b_pl, d_pl, _ = check_graph "powerlaw-256" pl ~mean_limit:None in
  (* timing benches, gated loosely (build/route jitter across machines) *)
  B.Harness.register ~name:"tz/build(ba-256)"
    ~budget:{ B.Harness.warmup = 1; min_iters = 3; max_iters = 15;
              max_seconds = 2.0 }
    ~threshold:1.0
    (fun () -> ignore (Tz_scheme.build ba));
  let rf = b_ba.Scheme.rf in
  let pair_st = Random.State.make [| 0xAB; 256 |] in
  let pairs =
    Array.init 2000 (fun _ ->
        let u = Random.State.int pair_st 256 in
        let rec draw () =
          let v = Random.State.int pair_st 256 in
          if v = u then draw () else v
        in
        (u, draw ()))
  in
  B.Harness.register ~name:"tz/route(ba-256)"
    ~budget:{ B.Harness.warmup = 1; min_iters = 3; max_iters = 25;
              max_seconds = 2.0 }
    ~items_per_iter:(float_of_int (Array.length pairs)) ~threshold:1.0
    (fun () ->
      Array.iter
        (fun (u, v) -> ignore (Routing_function.route_length rf u v))
        pairs);
  let report =
    B.Harness.run_all ~suite:"tz"
      ~context:
        [ ("ba_mean_stretch", B.Json.Num d_ba.Stretch_dist.ds_mean);
          ("ba_p95_stretch", B.Json.Num d_ba.Stretch_dist.ds_p95);
          ("ba_max_stretch", B.Json.Num d_ba.Stretch_dist.ds_max);
          ("powerlaw_mean_stretch", B.Json.Num d_pl.Stretch_dist.ds_mean);
          ("ba_mem_global_bits", B.Json.Num (float_of_int global_ba));
          ("ba_tz3_words_per_vertex_tree",
           B.Json.Num (words_per_vertex_tree ba (Tz_scheme.prepare ba)));
          ("ba_landmark3_words_per_vertex_tree",
           B.Json.Num (words_per_vertex_tree ba (Landmark_scheme.prepare ba))) ]
      ()
  in
  B.Cli.finish ~default_json:"BENCH_tz.json" report;
  Printf.printf "tz_smoke: OK\n"
