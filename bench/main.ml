(* Benchmark harness: regenerates every table and figure of the paper
   (printed as report sections) and times the machinery with
   Umrs_bench.Harness (one bench per experiment).

   Sections (see DESIGN.md's experiment index):
     T1  Table 1     bound formulas + measured memory of real schemes
     F1  Figure 1    Petersen matrix of constraints, machine-verified
     E1  Section 2   the canonical sets dM(p,q) (both variants)
     E2  Equation 2  the graphs of constraints of 3M(2,2)
     L1  Lemma 1     counting bound vs exhaustive counts
     TH1 Theorem 1   end-to-end reconstruction + asymptotic sweep
     S1  Section 1   K_n adversarial vs sorted port labelling
     U1  Section 1   O(log n) / O(d log n) upper-bound families,
                     plus the globe worst case of [8] and the labelling
                     optimizer of [5]
     A1-A5 ablations: stretch threshold sweep; memory balance; header
                     sizes (excluded from MEM); RLE table compression;
                     landmark selection strategies
     X1-X4 extensions: non-uniform arc costs; fault injection;
                     deadlock analysis via channel dependency graphs;
                     broadcast collectives

   Pass --fast to shrink workloads, --no-timings to skip the timings.
   The E3 rows and the timings are saved as one umrs/bench/v1 report to
   --json PATH (default BENCH_paper.json). *)

open Umrs_graph
open Umrs_routing
open Umrs_core
open Umrs_bench

let pf fmt = Format.printf fmt

let section title =
  pf "@.%s@.%s@." title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* T1: Table 1                                                         *)
(* ------------------------------------------------------------------ *)

let schemes_for_table = Registry.universal ()

let csv_rows : Scheme.evaluation list ref = ref []

let report_table1 ~fast () =
  section "T1. Table 1: memory requirement vs stretch factor";
  Bounds_table.print ~n:(if fast then 256 else 4096) Format.std_formatter ();
  let size = if fast then 16 else 32 in
  pf "@.Measured columns (graph corpus of order ~%d, bits):@." size;
  pf "%-18s %-18s %5s %6s %9s %10s %8s %8s %8s %8s@." "scheme" "graph" "n" "m"
    "local" "global" "stretch" "mean" "p50" "p95";
  let st = Random.State.make [| 0xBE5C; size |] in
  let corpus = Generators.corpus st ~size in
  List.iter
    (fun scheme ->
      List.iter
        (fun (gname, g) ->
          let e = Scheme.evaluate scheme ~graph_name:gname g in
          csv_rows := e :: !csv_rows;
          pf "%-18s %-18s %5d %6d %9d %10d %8.3f %8.3f %8.3f %8.3f@."
            e.Scheme.scheme_name e.Scheme.graph_name e.Scheme.order
            e.Scheme.edges e.Scheme.mem_local_bits e.Scheme.mem_global_bits
            e.Scheme.stretch.Stretch_dist.ds_max
            e.Scheme.stretch.Stretch_dist.ds_mean
            e.Scheme.stretch.Stretch_dist.ds_p50
            e.Scheme.stretch.Stretch_dist.ds_p95)
        corpus)
    schemes_for_table;
  pf "@.Reading: stretch-1 schemes (tables, interval) sit on the s=1 row;@.";
  pf "the landmark and Thorup-Zwick schemes realize the s=3 regime;@.";
  pf "spanner schemes the s=3/s=5 regimes with global memory well below@.";
  pf "full tables. p50/p95 are per-pair stretch quantiles.@."

let report_table1_scaling ~fast () =
  section "T1b. Table 1, the shape: local memory growth with n";
  let sizes = if fast then [ 16; 32 ] else [ 16; 32; 64 ] in
  let families size =
    let st = Random.State.make [| 0x5CA1E; size |] in
    [
      ("random_sparse", Generators.random_connected st ~n:size ~m:(2 * size));
      ("hypercube", Generators.hypercube (Umrs_bitcode.Codes.ceil_log2 size));
      ("random_tree", Generators.random_tree st size);
    ]
  in
  pf "%-18s %-16s" "scheme" "graph";
  List.iter (fun n -> pf " %8s" (Printf.sprintf "n=%d" n)) sizes;
  pf "   (MEM_local bits)@.";
  List.iter
    (fun scheme ->
      List.iter
        (fun fam ->
          pf "%-18s %-16s" scheme.Scheme.name fam;
          List.iter
            (fun size ->
              let g = List.assoc fam (families size) in
              let b = scheme.Scheme.build g in
              pf " %8d" (Scheme.mem_local b))
            sizes;
          pf "@.")
        [ "random_sparse"; "hypercube"; "random_tree" ])
    schemes_for_table;
  (* large-n row: memory exactly, stretch by sampling *)
  let big = if fast then 128 else 256 in
  let stb = Random.State.make [| 0xB16; big |] in
  let gbig = Generators.random_connected stb ~n:big ~m:(2 * big) in
  pf "@.large n = %d (random_sparse; stretch sampled on 100 pairs):@." big;
  List.iter
    (fun scheme ->
      let b = scheme.Scheme.build gbig in
      pf "  %-18s local=%6d bits  sampled stretch >= %.3f@."
        scheme.Scheme.name (Scheme.mem_local b)
        (Stretch_dist.sampled ~seed:0xB16 ~pairs:100 b.Scheme.rf).Stretch_dist.ds_max)
    [ Table_scheme.scheme; Interval_routing.scheme; Landmark_scheme.scheme;
      Spanner_scheme.scheme ~k:2; Hierarchical_scheme.scheme ];
  pf "@.tables grow ~n log d; interval ~d log n; landmark/tree-cover grow@.";
  pf "sublinearly in their table parts but pay polylog structures - the@.";
  pf "growth exponents, not the constants, are Table 1's content.@."

(* ------------------------------------------------------------------ *)
(* F1: Figure 1                                                        *)
(* ------------------------------------------------------------------ *)

let report_figure1 () =
  section "F1. Figure 1: matrix of constraints of shortest path, Petersen graph";
  let t = Petersen.instance () in
  pf "constrained vertices A = outer cycle {0..4}; targets B = inner {5..9}@.";
  pf "forced-port matrix (rows a_1..a_5, columns b_1..b_5):@.%a@." Matrix.pp
    t.Petersen.matrix;
  pf "unique shortest paths in Petersen: %b@."
    (Petersen.unique_shortest_paths t.Petersen.graph);
  pf "machine verification (Definition 1, stretch 1): %b@." (Petersen.verify t)

(* ------------------------------------------------------------------ *)
(* E1: canonical sets                                                  *)
(* ------------------------------------------------------------------ *)

let report_example_sets () =
  section "E1. Canonical sets dM(p,q) (Section 2)";
  let show variant label (p, q, d) =
    let set = Enumerate.canonical_set ~variant ~p ~q ~d () in
    pf "%s %dM(%d,%d): %d classes@." label d p q (List.length set);
    List.iter
      (fun m ->
        pf "  %-14s (class size %d)@." (Matrix.to_string m)
          (Enumerate.class_size ~variant ~p ~q ~d m))
      set
  in
  show Canonical.Positional "positional (paper's displayed example)" (2, 2, 2);
  show Canonical.Full "full Definition-2 group" (2, 2, 2);
  show Canonical.Full "full Definition-2 group" (2, 2, 3);
  pf "the paper's worked pair: canonical([1 2; 1 1]) = %s@."
    (Matrix.to_string
       (Canonical.canonical (Matrix.create [| [| 1; 2 |]; [| 1; 1 |] |])));
  pf "@.Burnside closed form (positional variant) vs enumeration:@.";
  List.iter
    (fun (p, q, d) ->
      let burnside = Count.positional_exact ~p ~q ~d in
      let exact =
        match Enumerate.count ~variant:Canonical.Positional ~p ~q ~d () with
        | x -> string_of_int x
        | exception Invalid_argument _ -> "(beyond enumeration)"
      in
      pf "  (%d,%d,%d): burnside=%s exact=%s@." p q d
        (Bignat.to_string burnside) exact)
    [ (2, 2, 2); (2, 3, 2); (3, 3, 2); (3, 3, 3); (4, 4, 4); (6, 6, 5) ];
  pf "@.Wreath-product Burnside: exact |dM(p,q)| under the FULL group:@.";
  List.iter
    (fun (p, q, d) ->
      let exact =
        if Float.pow (float_of_int d) (float_of_int (p * q)) > 131072.0 then
          "(beyond quick enumeration)"
        else string_of_int (Enumerate.count ~p ~q ~d ())
      in
      pf "  (%d,%d,%d): closed form=%s enumeration=%s@." p q d
        (Bignat.to_string (Count.full_exact ~p ~q ~d))
        exact)
    [ (2, 2, 3); (3, 3, 3); (3, 4, 3); (4, 4, 4); (6, 6, 5); (8, 8, 8) ];
  pf "@.Monte-Carlo estimate of |dM(p,q)| (full group) via orbit sampling:@.";
  let st = Random.State.make [| 0x0B17 |] in
  List.iter
    (fun (p, q, d) ->
      let e = Orbit.estimate_classes st ~samples:200 ~p ~q ~d in
      let exact =
        (* keep the cross-check cheap: enumerate only tiny spaces *)
        if Float.pow (float_of_int d) (float_of_int (p * q)) > 131072.0 then
          "(beyond quick enumeration)"
        else string_of_int (Enumerate.count ~p ~q ~d ())
      in
      pf "  (%d,%d,%d): estimate=%.1f +- %.1f exact=%s@." p q d e.Orbit.mean
        e.Orbit.std_error exact)
    [ (2, 2, 3); (3, 3, 3); (3, 4, 3) ]

(* ------------------------------------------------------------------ *)
(* E3: the enumeration engine, timed                                   *)
(* ------------------------------------------------------------------ *)

let enum_benches : Report.bench list ref = ref []

let report_enumeration_engine ~fast () =
  section "E3. Enumeration engine: canonical_set wall times (seq vs sharded)";
  (* Measure the parallel column at the recommended domain count, not at
     [Parallel.default_domains ()] (= recommended - 1), which collapses
     to 1 on small machines and made seconds_par a second sequential
     measurement. *)
  let domains = Domain.recommended_domain_count () in
  let instances =
    if fast then [ (2, 2, 3); (2, 3, 3); (3, 3, 2) ]
    else [ (2, 2, 3); (2, 3, 3); (3, 3, 2); (2, 2, 4); (2, 4, 3); (3, 4, 3) ]
  in
  pf "%-10s %10s %8s %12s %12s %8s@." "(p,q,d)" "d^(pq)" "classes"
    "seq (s)" (Printf.sprintf "par x%d (s)" domains) "speedup";
  List.iter
    (fun (p, q, d) ->
      let seq, t_seq =
        Clock.time (fun () -> Enumerate.canonical_set ~domains:1 ~p ~q ~d ())
      in
      let par, t_par =
        Clock.time (fun () -> Enumerate.canonical_set ~domains ~p ~q ~d ())
      in
      assert (List.for_all2 Matrix.equal seq par);
      let classes = List.length seq in
      (* Shard count actually used: [Parallel] caps domains at the raw
         matrix count, so tiny instances may use fewer than requested. *)
      let used =
        Array.length
          (Parallel.chunks ~domains (Enumerate.checked_total ~p ~q ~d ()))
      in
      enum_benches :=
        { Report.b_name = Printf.sprintf "e3/(%d,%d,%d)" p q d;
          b_iters = 1; b_warmup = 0; b_seconds = t_seq +. t_par;
          b_metrics =
            [ Report.metric ~unit_:"s" "seconds_seq" t_seq;
              Report.metric ~unit_:"s" "seconds_par" t_par;
              Report.metric "classes" (float_of_int classes);
              Report.metric "domains_used" (float_of_int used) ] }
        :: !enum_benches;
      pf "%-10s %10.0f %8d %12.4f %12.4f %8.2f@."
        (Printf.sprintf "(%d,%d,%d)" p q d)
        (Float.pow (float_of_int d) (float_of_int (p * q)))
        classes t_seq t_par
        (if t_par > 0.0 then t_seq /. t_par else Float.nan))
    instances;
  pf "@.sharded and sequential outputs verified identical on every row;@.";
  pf "the paper report (--json) records this table as the e3/* benches.@."

(* ------------------------------------------------------------------ *)
(* E2: Equation 2, graphs of constraints                               *)
(* ------------------------------------------------------------------ *)

let report_equation2 () =
  section "E2. Equation 2: graphs of constraints of 3M(2,2) (Lemma 2)";
  pf "%-14s %6s %6s %9s %7s@." "matrix" "order" "bound" "forced<2" "unique";
  List.iter
    (fun m ->
      let t = Cgraph.of_matrix m in
      let g = t.Cgraph.graph in
      let forced =
        match Verify.check_cgraph t ~bound:Verify.below_two with
        | Ok () -> true
        | Error _ -> false
      in
      let unique =
        Array.for_all
          (fun a ->
            Array.for_all
              (fun b -> Bfs.count_shortest_paths g a b = 1)
              t.Cgraph.targets)
          t.Cgraph.constrained
      in
      pf "%-14s %6d %6d %9b %7b@." (Matrix.to_string m) (Graph.order g)
        (Cgraph.order_bound ~p:2 ~q:2 ~d:3)
        forced unique)
    (Enumerate.canonical_set ~p:2 ~q:2 ~d:3 ())

(* ------------------------------------------------------------------ *)
(* L1: Lemma 1                                                         *)
(* ------------------------------------------------------------------ *)

let report_lemma1 () =
  section "L1. Lemma 1: d^(pq)/(p! q! (d!)^p) <= |dM(p,q)|";
  pf "%-12s %14s %14s %8s@." "(p,q,d)" "lemma-1 bound" "exact |dM|" "holds";
  List.iter
    (fun (p, q, d) ->
      let bound = Count.lemma1_bound ~p ~q ~d in
      let exact = Enumerate.count ~p ~q ~d () in
      pf "%-12s %14s %14d %8b@."
        (Printf.sprintf "(%d,%d,%d)" p q d)
        (Bignat.to_string bound) exact
        (Count.holds_exactly ~p ~q ~d ()))
    [ (1, 2, 2); (2, 2, 2); (2, 2, 3); (2, 3, 2); (3, 2, 2); (2, 2, 4);
      (3, 3, 2); (2, 4, 2); (1, 4, 3); (2, 5, 2) ];
  pf "@.log-space bound at Theorem-1 scale:@.";
  List.iter
    (fun (p, q, d) ->
      pf "  (p=%d, q=%d, d=%d): log2 |dM| >= %.0f bits@." p q d
        (Count.log2_lemma1_bound ~p ~q ~d))
    [ (32, 512, 15); (128, 8192, 63); (512, 131072, 255) ]

(* ------------------------------------------------------------------ *)
(* TH1: Theorem 1                                                      *)
(* ------------------------------------------------------------------ *)

let report_theorem1 ~fast () =
  section "TH1. Theorem 1: reconstruction experiment + asymptotic sweep";
  pf "end-to-end reconstruction over entire canonical sets:@.";
  pf "%-16s %8s %10s %8s %10s %10s@." "(p,q,d)" "classes" "injective"
    "forced" "recovered" "net bits";
  let cases =
    if fast then [ (2, 2, 2, None); (2, 2, 3, None) ]
    else
      [
        (2, 2, 2, None); (2, 2, 3, None); (2, 3, 2, None); (3, 2, 2, None);
        (2, 2, 2, Some 32); (2, 3, 2, Some 48);
      ]
  in
  List.iter
    (fun (p, q, d, pad_to) ->
      let o =
        Reconstruct.run_experiment ?pad_to ~p ~q ~d ~scheme:Table_scheme.build
          ()
      in
      pf "%-16s %8d %10b %8b %10b %10.1f@."
        (Printf.sprintf "(%d,%d,%d)%s" p q d
           (match pad_to with
           | Some n -> Printf.sprintf "+pad%d" n
           | None -> ""))
        o.Reconstruct.classes o.Reconstruct.injective o.Reconstruct.all_forced
        o.Reconstruct.all_recovered o.Reconstruct.bits_net)
    cases;
  let st = Random.State.make [| 0x5A11 |] in
  let sam =
    Reconstruct.run_sampled st ~samples:(if fast then 10 else 40) ~p:3 ~q:4
      ~d:3 ~scheme:Table_scheme.build ()
  in
  pf "sampled mechanism at (3,4,3) (|dM| = %s by Burnside): %d samples, forced=%b recovered=%b@."
    (Bignat.to_string (Count.full_exact ~p:3 ~q:4 ~d:3))
    sam.Reconstruct.s_samples sam.Reconstruct.s_all_forced
    sam.Reconstruct.s_all_recovered;
  pf "(net bits = information minus side information; at these toy sizes@.";
  pf " the MB + MC charge dominates - the asymptotic accounting is below)@.";
  pf "@.Theorem-1 lower bound vs the routing-table upper bound:@.";
  let ns =
    if fast then [ 1024; 16384 ]
    else [ 1024; 4096; 16384; 65536; 262144; 1048576 ]
  in
  List.iter
    (fun b -> pf "%a@." Lower_bound.pp_bound b)
    (Lower_bound.sweep ~ns ~epss:[ 0.25; 0.5; 0.75 ]);
  pf "@.Reading: per-router lower bound grows as Theta(n log n), a constant@.";
  pf "fraction of the table upper bound (ratio column converges upward):@.";
  pf "tables cannot be locally compressed for any stretch below 2.@.";
  pf "@.Companion global bound ([6], Table 1's global column for s < 2):@.";
  List.iter
    (fun b -> pf "%a@." Lower_bound.pp_global b)
    (Lower_bound.global_sweep ~ns);
  pf "LB/n^2 converges to 1/16 with this parameterization: Omega(n^2) total.@."

(* ------------------------------------------------------------------ *)
(* S1: K_n port labellings                                             *)
(* ------------------------------------------------------------------ *)

let report_kn_ports ~fast () =
  section "S1. Section 1 example: K_n under sorted vs adversarial ports";
  let st = Random.State.make [| 0xADA; 1 |] in
  pf "%6s %14s %18s %14s@." "n" "sorted (bits)" "adversarial (bits)"
    "log2((n-1)!)";
  List.iter
    (fun n ->
      let g = Generators.complete n in
      let direct = Specialized.build_complete_direct g in
      let adv = Specialized.build_complete_adversarial st g in
      pf "%6d %14d %18d %14.1f@." n
        (Scheme.mem_local direct)
        (Scheme.mem_local adv)
        (Umrs_bitcode.Rank.log2_factorial (n - 1)))
    (if fast then [ 8; 16 ] else [ 8; 12; 16; 20; 24; 32 ])

(* ------------------------------------------------------------------ *)
(* U1: O(log n) upper-bound families                                   *)
(* ------------------------------------------------------------------ *)

let report_upper_bounds ~fast () =
  section "U1. Section 1 upper bounds: specialized schemes";
  let rows = ref [] in
  let add name built =
    let stretch = Stretch_dist.exact built.Scheme.rf in
    rows :=
      ( name,
        Graph.order built.Scheme.rf.Routing_function.graph,
        Scheme.mem_local built,
        stretch.Stretch_dist.ds_max )
      :: !rows
  in
  let dim = if fast then 4 else 6 in
  add "ecube/hypercube" (Specialized.build_ecube (Generators.hypercube dim));
  add "ring"
    (Specialized.build_ring (Generators.cycle (if fast then 16 else 64)));
  let w = if fast then 4 else 8 in
  add "grid-dimension-order"
    (Specialized.build_grid ~w ~h:w (Generators.grid w w));
  add "K_n-direct"
    (Specialized.build_complete_direct
       (Generators.complete (if fast then 12 else 24)));
  let dims = if fast then [ 3; 4 ] else [ 4; 4; 4 ] in
  add "torus-nd-dor"
    (Specialized.build_torus_dor ~dims (Generators.torus_nd dims));
  let st = Random.State.make [| 3; 14 |] in
  let tree = Generators.random_tree st (if fast then 24 else 48) in
  add "interval/tree (1-IRS)" (Interval_routing.build tree);
  (match
     Generators.unit_circular_arc st ~n:(if fast then 16 else 32) ~arc:0.25
   with
  | Some g -> add "interval/circular-arc" (Interval_routing.build g)
  | None -> ());
  let outer = Generators.maximal_outerplanar st (if fast then 16 else 32) in
  add "interval/outerplanar" (Interval_routing.build outer);
  pf "%-24s %6s %12s %8s@." "scheme/family" "n" "local bits" "stretch";
  List.iter
    (fun (name, n, bits, s) -> pf "%-24s %6d %12d %8.3f@." name n bits s)
    (List.rev !rows);
  (* the [8] worst case for interval routing, and the [5] optimizer *)
  let globe = Generators.globe ~meridians:(if fast then 4 else 6)
      ~parallels:(if fast then 3 else 4) in
  let dfs = Interval_routing.compile ~labelling:Interval_routing.Dfs globe in
  let opt =
    Interval_routing.optimize_labelling ~steps:(if fast then 200 else 2000)
      (Random.State.make [| 8; 5 |]) globe
  in
  pf "@.interval compactness on the globe graph (worst-case family of [8]):@.";
  pf "  DFS labelling:       %d intervals/arc max, %d total@."
    (Interval_routing.compactness dfs)
    (Interval_routing.total_intervals dfs);
  pf "  optimized labelling: %d intervals/arc max, %d total (local search, [5])@."
    (Interval_routing.compactness opt)
    (Interval_routing.total_intervals opt)

(* ------------------------------------------------------------------ *)
(* A1/A2: ablations                                                    *)
(* ------------------------------------------------------------------ *)

let report_ablation_stretch () =
  section "A1. Ablation: where does forcing break? (conclusion, question 2)";
  let m = Matrix.create [| [| 1; 2; 1 |]; [| 1; 1; 2 |] |] in
  let t = Cgraph.of_matrix m in
  pf "forced fraction of (i,j) pairs on G([1 2 1; 1 1 2]) vs stretch bound:@.";
  List.iter
    (fun (num, den, strict) ->
      let bound = { Verify.num; den; strict } in
      pf "  s %s %d/%d: %.2f@."
        (if strict then "<" else "<=")
        num den
        (Verify.forced_fraction t ~bound))
    [ (1, 1, false); (3, 2, false); (2, 1, true); (2, 1, false); (3, 1, false) ];
  pf "forcing is total for every bound below 2 and collapses at 2 -@.";
  pf "exactly the phase transition Theorem 1 needs.@."

let report_ablation_balance ~fast () =
  section "A2. Ablation: local vs global balance (Section 1 motivation)";
  let size = if fast then 16 else 32 in
  let st = Random.State.make [| 0xBA1; size |] in
  let g = Generators.random_connected st ~n:size ~m:(3 * size) in
  pf "per-router bits on a random graph (n=%d, m=%d):@." size (3 * size);
  pf "%-18s %8s %8s %10s@." "scheme" "min" "max" "global";
  List.iter
    (fun scheme ->
      let b = scheme.Scheme.build g in
      let profile = Scheme.mem_profile b in
      pf "%-18s %8d %8d %10d@." scheme.Scheme.name
        (Array.fold_left min max_int profile)
        (Array.fold_left max 0 profile)
        (Scheme.mem_global b))
    schemes_for_table;
  pf "@.per-pair stretch distributions (same graph):@.";
  List.iter
    (fun scheme ->
      let b = scheme.Scheme.build g in
      pf "  %-18s %a@." scheme.Scheme.name Stretch_dist.pp
        (Stretch_dist.exact b.Scheme.rf))
    [ Landmark_scheme.scheme; Spanner_scheme.scheme ~k:2;
      Hierarchical_scheme.scheme; Tree_cover_scheme.scheme ];
  pf "@.";
  pf "MEM_global alone hides imbalance: interval/tables are even,@.";
  pf "landmark concentrates bits at landmarks (cf. Section 1's remark).@."

let report_ablation_headers ~fast () =
  section "A3. Ablation: header sizes (excluded from MEM by the model)";
  let size = if fast then 16 else 25 in
  let side = int_of_float (sqrt (float_of_int size)) in
  let g = Generators.torus (max 4 side) (max 4 side) in
  pf "max header bits on a torus (n=%d); MEM charges none of these:@."
    (Graph.order g);
  List.iter
    (fun scheme ->
      let b = scheme.Scheme.build g in
      pf "  %-18s %3d header bits, %6d memory bits local@."
        scheme.Scheme.name
        (Routing_function.max_header_bits b.Scheme.rf)
        (Scheme.mem_local b))
    [
      Table_scheme.scheme; Interval_routing.scheme; Landmark_scheme.scheme;
      Hierarchical_scheme.scheme;
    ];
  pf "the paper allows unbounded headers to keep the lower bound fully@.";
  pf "general; real schemes pay a few extra log-n fields.@."

let report_ablation_landmarks ~fast () =
  section "A5. Ablation: landmark selection strategy";
  let size = if fast then 20 else 36 in
  let side = int_of_float (sqrt (float_of_int size)) in
  let g = Generators.grid (max 4 side) (max 4 side) in
  pf "grid %dx%d, default landmark count:@." (max 4 side) (max 4 side);
  pf "  %-14s %10s %10s %12s@." "strategy" "local" "global" "max stretch";
  List.iter
    (fun (name, strategy) ->
      let b = Landmark_scheme.build ~strategy g in
      let st = Stretch_dist.exact b.Scheme.rf in
      pf "  %-14s %10d %10d %12.3f@." name (Scheme.mem_local b)
        (Scheme.mem_global b) st.Stretch_dist.ds_max)
    [
      ("random", Landmark_scheme.Random_landmarks);
      ("high-degree", Landmark_scheme.High_degree);
      ("k-center", Landmark_scheme.K_center);
    ];
  pf "spread-out landmarks (k-center) shrink the worst cluster tables;@.";
  pf "the stretch-3 guarantee holds under every strategy.@."

let report_ablation_compression ~fast () =
  section "A4. Ablation: trying to compress tables anyway (Theorem 1, felt)";
  pf "run-length coding of next-hop tables, global ratio vs plain tables:@.";
  let n = if fast then 32 else 64 in
  List.iter
    (fun (name, g) ->
      pf "  %-22s %.3f@." name (Compressed_tables.compression_ratio g))
    [
      (Printf.sprintf "cycle %d" n, Generators.cycle n);
      ("grid 6x6", Generators.grid 6 6);
      ("hypercube 32", Generators.hypercube 5);
      (Printf.sprintf "star %d" n, Generators.star n);
    ];
  (* constrained routers of graphs of constraints: the rows are
     incompressible by construction *)
  let ms =
    [
      Matrix.create [| [| 1; 2; 3; 1; 3; 2; 2; 1; 3 |]; [| 1; 1; 2; 3; 2; 1; 3; 3; 2 |] |];
      Matrix.create [| [| 1; 2; 1; 3; 2; 3; 1; 2; 3 |]; [| 1; 2; 3; 3; 1; 2; 2; 3; 1 |] |];
    ]
  in
  List.iter
    (fun m ->
      let t = Cgraph.of_matrix m in
      let g = t.Cgraph.graph in
      let plain = Table_scheme.build g and rle = Compressed_tables.build g in
      let a = t.Cgraph.constrained.(0) in
      pf "  G(%s): at a constrained router, RLE %d bits vs plain %d bits@."
        (Matrix.to_string m)
        (Umrs_routing.Scheme.mem_at rle a)
        (Umrs_routing.Scheme.mem_at plain a))
    ms;
  pf "structured tables compress; constraint-graph rows do not - the@.";
  pf "incompressibility Theorem 1 proves, observed on a real encoder.@."

let report_extension_weights ~fast () =
  section "X1. Extension: non-uniform arc costs (Table 1 comments on [1],[2])";
  let st = Random.State.make [| 0x3E1; 6 |] in
  let n = if fast then 12 else 20 in
  let g = Generators.random_connected st ~n ~m:(2 * n) in
  let w = Weighted.random st ~max_cost:9 g in
  let weighted = Weighted_tables.build w in
  let hop = Table_scheme.build g in
  let sw = Weighted_tables.stretch w weighted.Scheme.rf in
  let sh = Weighted_tables.stretch w hop.Scheme.rf in
  pf "random graph n=%d, m=%d, edge costs 1..9:@." n (2 * n);
  pf "  weighted tables: weighted stretch %.3f (mean %.3f), %d bits local@."
    sw.Stretch_dist.ds_max sw.Stretch_dist.ds_mean
    (Scheme.mem_local weighted);
  pf "  hop tables:      weighted stretch %.3f (mean %.3f), %d bits local@."
    sh.Stretch_dist.ds_max sh.Stretch_dist.ds_mean
    (Scheme.mem_local hop);
  pf "same memory, but cost-blind routing pays real stretch under@.";
  pf "non-uniform costs - why [1],[2] treat weighted arcs explicitly.@."

let report_extension_collectives ~fast () =
  section "X4. Extension: collectives (broadcast on the simulator)";
  let side = if fast then 4 else 6 in
  let g = Generators.grid side side in
  let rf = (Table_scheme.build g).Scheme.rf in
  let uni = Collective.broadcast_unicast rf ~root:0 in
  let tree = Collective.broadcast_tree g ~root:0 in
  pf "grid %dx%d, broadcast from a corner:@." side side;
  pf "  unicast storm: %3d rounds, %4d messages@." uni.Collective.rounds
    uni.Collective.messages;
  pf "  BFS tree:      %3d rounds, %4d messages@." tree.Collective.rounds
    tree.Collective.messages;
  pf "the tree collective pays n-1 messages and eccentricity rounds;@.";
  pf "unicasts re-pay shared prefixes and queue on the root's links.@."

let report_extension_deadlock () =
  section "X3. Extension: deadlock analysis (Dally & Seitz, reference [3])";
  pf "channel-dependency-graph acyclicity of classical scheme/topology pairs:@.";
  let check name rf =
    match Deadlock.find_cycle rf with
    | None -> pf "  %-26s deadlock-FREE@." name
    | Some cycle ->
      pf "  %-26s dependency cycle of length %d@." name (List.length cycle)
  in
  check "e-cube / hypercube 16"
    (Specialized.build_ecube (Generators.hypercube 4)).Scheme.rf;
  check "DOR / mesh 4x4"
    (Specialized.build_grid ~w:4 ~h:4 (Generators.grid 4 4)).Scheme.rf;
  check "DOR / torus 4x4"
    (Specialized.build_torus_dor ~dims:[ 4; 4 ] (Generators.torus_nd [ 4; 4 ])).Scheme.rf;
  check "shortest / ring 8"
    (Specialized.build_ring (Generators.cycle 8)).Scheme.rf;
  check "tables / random tree"
    (Table_scheme.build (Generators.random_tree (Random.State.make [| 3 |]) 16)).Scheme.rf;
  pf "  %-26s %s@." "DOR+2VCs / torus 4x4"
    (if Specialized.torus_dor_vc_deadlock_free ~dims:[ 4; 4 ]
          (Generators.torus_nd [ 4; 4 ])
     then "deadlock-FREE (virtual channels)"
     else "cycle (unexpected)");
  pf "dimension order is deadlock-free exactly when wrap-around is absent;@.";
  pf "two virtual channels restore it on tori - the [3] results, recovered@.";
  pf "from the routing functions themselves.@."

let report_extension_failures ~fast () =
  section "X2. Extension: fault injection (simulator)";
  let st = Random.State.make [| 0xFA11 |] in
  let g = Generators.torus 5 5 in
  let rf = (Table_scheme.build g).Scheme.rf in
  let pairs =
    List.init (if fast then 40 else 120) (fun i -> ((i * 7) mod 25, (i * 11 + 3) mod 25))
    |> List.filter (fun (a, b) -> a <> b)
  in
  let clean = Umrs_routing.Simulator.run rf ~pairs in
  pf "torus 5x5, %d packets:@." (List.length pairs);
  pf "  clean:        %a@." Simulator.pp_stats clean;
  List.iter
    (fun loss ->
      let s = Simulator.run_flaky st ~loss rf ~pairs in
      pf "  loss %.2f:    %a@." loss Simulator.pp_stats s;
      pf "                delays: %s@." (Simulator.delay_summary s))
    [ 0.1; 0.3; 0.5 ];
  let hp = Simulator.run_hot_potato st rf ~pairs in
  pf "  hot-potato:   %a@." Simulator.pp_stats hp;
  pf "                delays: %s@." (Simulator.delay_summary hp);
  let dead = [ (0, 1); (7, 12) ] in
  let s = Simulator.run_with_dead_links ~dead rf ~pairs in
  pf "  2 dead links: %a@." Simulator.pp_stats s;
  pf "static routing functions drop traffic on dead links - the paper's@.";
  pf "model is static; recomputation cost is out of scope but measurable.@."

(* ------------------------------------------------------------------ *)
(* Timings                                                             *)
(* ------------------------------------------------------------------ *)

let register_timings ~fast =
  let budget =
    { Harness.default_budget with max_seconds = (if fast then 0.05 else 0.25) }
  in
  let bench name f = Harness.register ~name ~budget (fun () -> ignore (f ())) in
  let st = Random.State.make [| 0x7E57 |] in
  let size = if fast then 12 else 24 in
  let g_corpus = Generators.random_connected st ~n:size ~m:(2 * size) in
  let petersen = Generators.petersen () in
  let m322 = Matrix.create [| [| 1; 2 |]; [| 1; 2 |] |] in
  bench "table1/routing-tables" (fun () -> Table_scheme.build g_corpus);
  bench "table1/interval-dfs" (fun () -> Interval_routing.build g_corpus);
  bench "table1/landmark-3" (fun () -> Landmark_scheme.build g_corpus);
  bench "table1/spanner-3" (fun () -> Spanner_scheme.build ~k:2 g_corpus);
  bench "figure1/petersen-verify" (fun () ->
      Petersen.verify (Petersen.instance ()));
  bench "example/canonicalize" (fun () -> Canonical.canonical m322);
  bench "example/enumerate-3M22" (fun () ->
      Enumerate.canonical_set ~p:2 ~q:2 ~d:3 ());
  bench "equation2/cgraph-build" (fun () -> Cgraph.of_matrix m322);
  bench "lemma1/exact-bound" (fun () -> Count.lemma1_bound ~p:3 ~q:3 ~d:4);
  bench "theorem1/reconstruct-223" (fun () ->
      Reconstruct.run_experiment ~p:2 ~q:2 ~d:3 ~scheme:Table_scheme.build ());
  bench "theorem1/bound-sweep" (fun () ->
      Lower_bound.theorem1 ~n:65536 ~eps:0.5);
  bench "kn/adversarial-encode" (fun () ->
      Specialized.build_complete_adversarial st (Generators.complete 16));
  bench "upper/ecube-build" (fun () ->
      Specialized.build_ecube (Generators.hypercube 6));
  bench "substrate/bfs-petersen" (fun () -> Bfs.all_pairs petersen);
  bench "substrate/simulate-all-pairs" (fun () ->
      Simulator.all_pairs (Table_scheme.build petersen).Scheme.rf);
  bench "table1/hierarchical" (fun () -> Hierarchical_scheme.build g_corpus);
  let w = Weighted.random (Random.State.make [| 9 |]) ~max_cost:9 g_corpus in
  bench "extension/weighted-tables" (fun () -> Weighted_tables.build w);
  bench "example/burnside-full-888" (fun () -> Count.full_exact ~p:8 ~q:8 ~d:8);
  let globe = Generators.globe ~meridians:3 ~parallels:2 in
  bench "upper/min-compactness-n8" (fun () ->
      Interval_routing.min_compactness_exhaustive globe);
  bench "example/burnside-665" (fun () ->
      Count.positional_exact ~p:6 ~q:6 ~d:5);
  let m333 = Matrix.create [| [| 1; 2; 3 |]; [| 1; 1; 2 |]; [| 1; 2; 1 |] |] in
  bench "example/orbit-333" (fun () -> Orbit.size ~d:3 m333);
  let petersen_rf = (Table_scheme.build petersen).Scheme.rf in
  bench "substrate/hot-potato" (fun () ->
      Simulator.run_hot_potato (Random.State.make [| 4 |]) petersen_rf
        ~pairs:[ (0, 7); (1, 8); (2, 9); (3, 5) ]);
  bench "upper/tree-cover-build" (fun () -> Tree_cover_scheme.build petersen);
  bench "extension/deadlock-check" (fun () ->
      Deadlock.is_deadlock_free petersen_rf);
  let torus = Generators.torus 8 8 in
  bench "substrate/parallel-apsp" (fun () ->
      Parallel.all_pairs ~domains:4 torus);
  bench "upper/interval-optimize" (fun () ->
      Interval_routing.optimize_labelling ~steps:50 (Random.State.make [| 5 |])
        petersen)

let run_timings ~fast () =
  section "Timings (Umrs_bench.Harness, monotonic clock, p50 per run)";
  register_timings ~fast;
  (Harness.run_all ~suite:"paper" ()).Report.r_benches

(* ------------------------------------------------------------------ *)

let () =
  let fast = Array.exists (( = ) "--fast") Sys.argv in
  let no_timings = Array.exists (( = ) "--no-timings") Sys.argv in
  (match Cli.flag "--telemetry" with
  | Some path -> Telemetry.open_file path
  | None -> ());
  pf "umrs benchmark harness - Fraigniaud & Gavoille (1996) reproduction@.";
  pf "mode: %s@." (if fast then "fast" else "full");
  report_table1 ~fast ();
  report_table1_scaling ~fast ();
  report_figure1 ();
  report_example_sets ();
  report_enumeration_engine ~fast ();
  report_equation2 ();
  report_lemma1 ();
  report_theorem1 ~fast ();
  report_kn_ports ~fast ();
  report_upper_bounds ~fast ();
  report_ablation_stretch ();
  report_ablation_balance ~fast ();
  report_ablation_headers ~fast ();
  report_ablation_compression ~fast ();
  report_ablation_landmarks ~fast ();
  report_extension_weights ~fast ();
  report_extension_failures ~fast ();
  report_extension_deadlock ();
  report_extension_collectives ~fast ();
  (match Cli.flag "--csv" with
  | Some path ->
    let oc = open_out path in
    output_string oc (Registry.to_csv (List.rev !csv_rows));
    close_out oc;
    pf "@.measured Table-1 columns written to %s@." path
  | None -> ());
  let timings = if no_timings then [] else run_timings ~fast () in
  let path = Option.value (Cli.flag "--json") ~default:"BENCH_paper.json" in
  Report.save ~path
    (Report.make ~suite:"paper"
       ~context:
         [ ("mode", Json.Str (if fast then "fast" else "full"));
           ("recommended_domains",
            Json.Num (float_of_int (Domain.recommended_domain_count ()))) ]
       (List.rev !enum_benches @ timings));
  pf "@.paper report written to %s@." path;
  Telemetry.close ();
  pf "@.done.@."
