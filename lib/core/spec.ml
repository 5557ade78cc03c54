let definition1_figure1 () =
  let t = Petersen.instance () in
  Petersen.verify t
  && Petersen.unique_shortest_paths t.Petersen.graph
  &&
  let p, _ = Matrix.dims t.Petersen.matrix in
  List.for_all
    (fun i -> Matrix.row_alphabet t.Petersen.matrix i = 3)
    (List.init p Fun.id)

let lemma1 ~p ~q ~d = Count.holds_exactly ~p ~q ~d ()

let lemma2 m =
  let p, q = Matrix.dims m in
  let d = Matrix.max_entry m in
  let t = Cgraph.of_matrix m in
  let g = t.Cgraph.graph in
  Umrs_graph.Graph.order g <= Cgraph.order_bound ~p ~q ~d
  && Umrs_graph.Bfs.is_connected g
  && (match Verify.check_cgraph t ~bound:Verify.below_two with
     | Ok () -> true
     | Error _ -> false)

let lemma2_universal ~p ~q ~d =
  List.for_all lemma2 (Enumerate.canonical_set ~p ~q ~d ())

let theorem1_mechanism ~p ~q ~d =
  let plain =
    Reconstruct.run_experiment ~p ~q ~d ~scheme:Umrs_routing.Table_scheme.build
      ()
  in
  let padded =
    Reconstruct.run_experiment
      ~pad_to:(2 * Cgraph.order_bound ~p ~q ~d)
      ~p ~q ~d ~scheme:Umrs_routing.Table_scheme.build ()
  in
  plain.Reconstruct.injective && plain.Reconstruct.all_forced
  && plain.Reconstruct.all_recovered && padded.Reconstruct.injective
  && padded.Reconstruct.all_forced && padded.Reconstruct.all_recovered

let theorem1_asymptotics ~n ~eps =
  match Lower_bound.theorem1 ~n ~eps with
  | b ->
    let b2 = Lower_bound.theorem1 ~n:(2 * n) ~eps in
    b.Lower_bound.bits_per_router > 0.0
    && b.Lower_bound.bits_per_router <= b.Lower_bound.table_upper_bits
    && b2.Lower_bound.ratio >= 0.8 *. b.Lower_bound.ratio
  | exception Invalid_argument _ -> false

let global_bound_quadratic ~n =
  let b = Lower_bound.global_theorem ~n in
  b.Lower_bound.g_bits_total >= float_of_int n *. float_of_int n /. 32.0

let table1_consistency ~n =
  List.for_all
    (fun r ->
      r.Bounds_table.local_lower.Bounds_table.bits ~n
      <= r.Bounds_table.local_upper.Bounds_table.bits ~n +. 1.0
      && r.Bounds_table.global_lower.Bounds_table.bits ~n
         <= r.Bounds_table.global_upper.Bounds_table.bits ~n +. 1.0)
    Bounds_table.rows

let stretch_two_phase_transition () =
  let m = Matrix.create [| [| 1; 2; 1 |]; [| 1; 1; 2 |] |] in
  let t = Cgraph.of_matrix m in
  Verify.forced_fraction t ~bound:Verify.below_two = 1.0
  && Verify.forced_fraction t ~bound:Verify.shortest_paths_only = 1.0
  && Verify.forced_fraction t
       ~bound:{ Verify.num = 2; den = 1; strict = false }
     < 1.0

let all () =
  [
    ("Definition 1 on Figure 1 (Petersen)", definition1_figure1 ());
    ("Lemma 1 at (2,2,3)", lemma1 ~p:2 ~q:2 ~d:3);
    ("Lemma 1 at (2,3,2)", lemma1 ~p:2 ~q:3 ~d:2);
    ("Lemma 1 at (3,3,2)", lemma1 ~p:3 ~q:3 ~d:2);
    ("Lemma 2 over dM(2,2) (d=3)", lemma2_universal ~p:2 ~q:2 ~d:3);
    ("Lemma 2 over dM(2,3) (d=2)", lemma2_universal ~p:2 ~q:3 ~d:2);
    ("Theorem 1 mechanism at (2,2,3)", theorem1_mechanism ~p:2 ~q:2 ~d:3);
    ("Theorem 1 mechanism at (2,3,2)", theorem1_mechanism ~p:2 ~q:3 ~d:2);
    ("Theorem 1 asymptotics (n=16384, eps=0.5)",
     theorem1_asymptotics ~n:16384 ~eps:0.5);
    ("Global Omega(n^2) bound (n=4096)", global_bound_quadratic ~n:4096);
    ("Table 1 consistency (n=4096)", table1_consistency ~n:4096);
    ("Stretch-2 phase transition", stretch_two_phase_transition ());
  ]
