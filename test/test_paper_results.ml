(* Figure 1, Theorem 1 reconstruction, the Theorem 1 calculator, and
   Table 1 — the experiments of EXPERIMENTS.md as regression tests. *)

open Umrs_core
open Umrs_graph
open Helpers

(* ---------- Figure 1: Petersen ---------- *)

let test_petersen_unique_sp () =
  check_true "petersen has unique shortest paths"
    (Petersen.unique_shortest_paths (Generators.petersen ()))

let test_petersen_instance () =
  let t = Petersen.instance () in
  check_true "verified as matrix of constraints" (Petersen.verify t);
  let p, q = Matrix.dims t.Petersen.matrix in
  check_int "5 rows" 5 p;
  check_int "5 cols" 5 q;
  (* every row normalized and using all 3 ports (degree 3) *)
  for i = 0 to 4 do
    check_int "row alphabet 3" 3 (Matrix.row_alphabet t.Petersen.matrix i)
  done

let test_petersen_relabelled_graph_is_petersen () =
  let t = Petersen.instance () in
  let g = t.Petersen.graph in
  check_int "order" 10 (Graph.order g);
  check_int "size" 15 (Graph.size g);
  check_true "3-regular" (Props.is_regular g);
  check_true "girth 5" (Props.girth g = Some 5)

let test_petersen_spoke_entry () =
  (* the figure's flagship claim: every shortest path a_i -> b_i (its
     spoke neighbour) starts with the direct arc *)
  let t = Petersen.instance () in
  let g = t.Petersen.graph in
  let dist = Bfs.all_pairs g in
  for i = 0 to 4 do
    let a = t.Petersen.constrained.(i) and b = t.Petersen.targets.(i) in
    match
      Verify.usable_ports g ~dist ~src:a ~dst:b
        ~bound:Verify.shortest_paths_only
    with
    | [ k ] -> check_int "direct arc" b (Graph.neighbor g a ~port:k)
    | _ -> Alcotest.fail "spoke port not unique"
  done

(* ---------- Theorem 1: reconstruction ---------- *)

let table_scheme = Umrs_routing.Table_scheme.build

let test_reconstruct_roundtrip_223 () =
  let o = Reconstruct.run_experiment ~p:2 ~q:2 ~d:3 ~scheme:table_scheme () in
  check_int "classes" 3 o.Reconstruct.classes;
  check_true "injective" o.Reconstruct.injective;
  check_true "forced" o.Reconstruct.all_forced;
  check_true "recovered" o.Reconstruct.all_recovered

let test_reconstruct_roundtrip_232 () =
  let o = Reconstruct.run_experiment ~p:2 ~q:3 ~d:2 ~scheme:table_scheme () in
  check_true "injective" o.Reconstruct.injective;
  check_true "recovered" o.Reconstruct.all_recovered;
  check_true "info bits positive" (o.Reconstruct.bits_information > 0.0)

let test_reconstruct_with_padding () =
  let o =
    Reconstruct.run_experiment ~pad_to:24 ~p:2 ~q:2 ~d:2 ~scheme:table_scheme ()
  in
  check_true "padded graphs still reconstruct"
    (o.Reconstruct.injective && o.Reconstruct.all_recovered
   && o.Reconstruct.all_forced)

let test_reconstruct_with_interval_scheme () =
  (* any shortest-path scheme must reconstruct, not just tables *)
  let o =
    Reconstruct.run_experiment ~p:2 ~q:2 ~d:3
      ~scheme:(fun g -> Umrs_routing.Interval_routing.build g)
      ()
  in
  check_true "interval scheme reconstructs"
    (o.Reconstruct.injective && o.Reconstruct.all_recovered)

let test_from_routing_is_forced_matrix () =
  let m = Matrix.create [| [| 1; 2; 1 |]; [| 1; 1; 2 |] |] in
  let t = Cgraph.of_matrix m in
  let built = table_scheme t.Cgraph.graph in
  let m' = Reconstruct.from_routing t built.Umrs_routing.Scheme.rf in
  check_true "raw reconstruction equals M" (Matrix.equal m m')

(* ---------- Theorem 1: calculator ---------- *)

let test_params_fit () =
  List.iter
    (fun (n, eps) ->
      let p = Lower_bound.choose_params ~n ~eps in
      check_true "order fits" (p.Lower_bound.order_unpadded <= n);
      check_true "p >= 2" (p.Lower_bound.p >= 2);
      check_true "d >= 2" (p.Lower_bound.d >= 2))
    [ (64, 0.5); (1024, 0.25); (1024, 0.5); (65536, 0.75) ]

(* NaN included: a guard written as [eps <= 0 || eps >= 1] lets it
   through, to a bound of 0 bits. *)
let test_params_refuse_eps () =
  List.iter
    (fun eps ->
      check_true (Printf.sprintf "eps = %g refused" eps)
        (try ignore (Lower_bound.choose_params ~n:1024 ~eps); false
         with Invalid_argument _ -> true))
    [ 0.0; 1.0; -0.5; 2.0; Float.nan; Float.infinity ]

let test_bound_positive_and_below_tables () =
  let b = Lower_bound.theorem1 ~n:16384 ~eps:0.5 in
  check_true "positive" (b.Lower_bound.bits_per_router > 0.0);
  check_true "below upper bound"
    (b.Lower_bound.bits_per_router <= b.Lower_bound.table_upper_bits);
  check_true "same order of magnitude" (b.Lower_bound.ratio > 0.05)

let test_ratio_improves_with_n () =
  (* Theta(n log n) lower vs O(n log n) upper: the ratio must not
     degrade as n grows (it converges to a constant) *)
  let r n = (Lower_bound.theorem1 ~n ~eps:0.5).Lower_bound.ratio in
  check_true "non-degrading" (r 262144 > r 1024)

let test_global_bound () =
  let b = Lower_bound.global_theorem ~n:4096 in
  check_true "quadratic"
    (b.Lower_bound.g_bits_total > 0.5 *. (4096.0 *. 4096.0) /. 16.0);
  check_true "below table total"
    (b.Lower_bound.g_bits_total <= b.Lower_bound.g_table_global_bits);
  (* the Omega(n^2) constant approaches 1/16 from below *)
  let r n = (Lower_bound.global_theorem ~n).Lower_bound.g_ratio in
  check_true "ratio grows toward 1/16" (r 65536 > r 1024 && r 65536 < 0.0625)

let test_sweep_skips_infeasible () =
  let bounds = Lower_bound.sweep ~ns:[ 16; 1024 ] ~epss:[ 0.5; 0.99 ] in
  (* eps=0.99 at n=16 gives p ~ 15, infeasible; survivors only *)
  check_true "some results" (List.length bounds >= 1);
  List.iter
    (fun b ->
      check_true "all feasible"
        (b.Lower_bound.params.Lower_bound.order_unpadded
        <= b.Lower_bound.params.Lower_bound.n))
    bounds

(* ---------- Table 1 ---------- *)

let test_rows_cover_stretches () =
  List.iter
    (fun s ->
      let r = Bounds_table.row_for ~s in
      check_true "applies" (r.Bounds_table.applies ~s))
    [ 1.0; 1.5; 2.0; 2.5; 3.0; 4.0; 5.0; 100.0 ]

let test_theorem_row () =
  let r = Bounds_table.row_for ~s:1.5 in
  check_true "this paper's row" (not r.Bounds_table.from_cited_work);
  check_true "mentions theorem"
    (String.length r.Bounds_table.local_lower.Bounds_table.text > 0);
  (* local lower = local upper asymptotically: tables are optimal *)
  let n = 4096 in
  Alcotest.(check (float 1.0))
    "tight row"
    (r.Bounds_table.local_upper.Bounds_table.bits ~n)
    (r.Bounds_table.local_lower.Bounds_table.bits ~n)

let test_formulas_monotone_in_n () =
  List.iter
    (fun r ->
      let lo = r.Bounds_table.local_lower.Bounds_table.bits in
      check_true "monotone" (lo ~n:65536 >= lo ~n:256))
    Bounds_table.rows

let test_print_renders () =
  let s = Format.asprintf "%a" (fun fmt () -> Bounds_table.print ~n:1024 fmt ()) () in
  check_true "has header" (String.length s > 200);
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  check_true "mentions theorem 1" (contains s "THEOREM 1")


let test_spec_checklist () =
  List.iter
    (fun (name, passed) -> check_true name passed)
    (Spec.all ())


(* (4,8,8) is the size the paper-pipeline benchmark samples, far past
   what enumerating dM(p,q) reaches. *)
let test_sampled_reconstruction ~samples ~p ~q ~d () =
  let st = rng () in
  let s =
    Reconstruct.run_sampled st ~samples ~p ~q ~d
      ~scheme:Umrs_routing.Table_scheme.build ()
  in
  check_true "forced on samples" s.Reconstruct.s_all_forced;
  check_true "recovered on samples" s.Reconstruct.s_all_recovered

let suite =
  [
    case "petersen unique shortest paths" test_petersen_unique_sp;
    case "petersen figure instance verifies" test_petersen_instance;
    case "petersen relabelling preserves structure"
      test_petersen_relabelled_graph_is_petersen;
    case "petersen spoke entries forced" test_petersen_spoke_entry;
    case "reconstruct dM(2,2,3) via tables" test_reconstruct_roundtrip_223;
    case "reconstruct dM(2,3,2)" test_reconstruct_roundtrip_232;
    case "reconstruct with padded graphs" test_reconstruct_with_padding;
    case "reconstruct via interval routing" test_reconstruct_with_interval_scheme;
    case "raw reconstruction = M" test_from_routing_is_forced_matrix;
    case "theorem-1 parameters fit" test_params_fit;
    case "lower bound positive, below tables" test_bound_positive_and_below_tables;
    case "ratio improves with n" test_ratio_improves_with_n;
    case "sweep skips infeasible" test_sweep_skips_infeasible;
    case "global Omega(n^2) bound ([6])" test_global_bound;
    case "executable checklist (Spec.all)" test_spec_checklist;
    case "sampled reconstruction at (3,4,3)"
      (test_sampled_reconstruction ~samples:8 ~p:3 ~q:4 ~d:3);
    case "sampled reconstruction at (4,8,8)"
      (test_sampled_reconstruction ~samples:25 ~p:4 ~q:8 ~d:8);
    case "table rows cover all stretches" test_rows_cover_stretches;
    case "theorem row is tight" test_theorem_row;
    case "formulas monotone in n" test_formulas_monotone_in_n;
    case "table printing" test_print_renders;
    case "theorem-1 refuses eps outside (0, 1)" test_params_refuse_eps;
  ]
