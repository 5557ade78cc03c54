open Umrs_core
open Umrs_graph
open Helpers

let sample_matrix () = Matrix.create [| [| 1; 2; 1 |]; [| 1; 1; 2 |] |]

let test_structure () =
  let m = sample_matrix () in
  let t = Cgraph.of_matrix m in
  let g = t.Cgraph.graph in
  (* p=2 rows with alphabet 2 each: 2 + 3 + 4 = 9 vertices *)
  check_int "order" 9 (Graph.order g);
  check_true "within bound" (Graph.order g <= Cgraph.order_bound ~p:2 ~q:3 ~d:2);
  check_true "connected" (Bfs.is_connected g);
  (* port k of a_i leads to c_{i,k} *)
  Array.iteri
    (fun i ai ->
      Array.iteri
        (fun k_minus_1 c ->
          check_int "port wiring" c (Graph.neighbor g ai ~port:(k_minus_1 + 1)))
        t.Cgraph.middle.(i))
    t.Cgraph.constrained

let test_distances () =
  let t = Cgraph.of_matrix (sample_matrix ()) in
  let g = t.Cgraph.graph in
  let dist = Bfs.all_pairs g in
  Array.iter
    (fun a ->
      Array.iter
        (fun b -> check_int "dist(a,b)=2" 2 dist.(a).(b))
        t.Cgraph.targets)
    t.Cgraph.constrained

let test_unique_short_path () =
  let t = Cgraph.of_matrix (sample_matrix ()) in
  let g = t.Cgraph.graph in
  Array.iter
    (fun a ->
      Array.iter
        (fun b -> check_int "unique 2-path" 1 (Bfs.count_shortest_paths g a b))
        t.Cgraph.targets)
    t.Cgraph.constrained

let test_forced_below_two () =
  let t = Cgraph.of_matrix (sample_matrix ()) in
  check_true "forced"
    (match Verify.check_cgraph t ~bound:Verify.below_two with
    | Ok () -> true
    | Error _ -> false)

let test_not_forced_at_two () =
  (* at stretch exactly 2 (paths of length 4 allowed), alternatives can
     appear whenever a row has >= 2 values and targets share middles *)
  let t = Cgraph.of_matrix (sample_matrix ()) in
  let bound = { Verify.num = 2; den = 1; strict = false } in
  let frac = Verify.forced_fraction t ~bound in
  check_true "degrades at s = 2" (frac < 1.0)

let test_all_small_matrices_forced () =
  List.iter
    (fun m ->
      let t = Cgraph.of_matrix m in
      check_true
        (Matrix.to_string m)
        (match Verify.check_cgraph t ~bound:Verify.below_two with
        | Ok () -> true
        | Error _ -> false))
    (Enumerate.canonical_set ~p:2 ~q:3 ~d:2 ())

let test_pad_to_order () =
  let t = Cgraph.of_matrix (sample_matrix ()) in
  let t' = Cgraph.pad_to_order t ~n:20 in
  check_int "padded order" 20 (Graph.order t'.Cgraph.graph);
  check_true "still connected" (Bfs.is_connected t'.Cgraph.graph);
  check_true "still forced"
    (match Verify.check_cgraph t' ~bound:Verify.below_two with
    | Ok () -> true
    | Error _ -> false);
  check_true "same matrix" (Matrix.equal t.Cgraph.matrix t'.Cgraph.matrix);
  check_true "noop pad" (Cgraph.pad_to_order t ~n:9 == t)

let test_violation_reporting () =
  (* a wrong matrix must be flagged with the right usable set *)
  let m = sample_matrix () in
  let t = Cgraph.of_matrix m in
  let wrong = Matrix.create_relaxed [| [| 2; 2; 1 |]; [| 1; 1; 2 |] |] in
  match
    Verify.check t.Cgraph.graph ~constrained:t.Cgraph.constrained
      ~targets:t.Cgraph.targets wrong ~bound:Verify.below_two
  with
  | Ok () -> Alcotest.fail "wrong matrix accepted"
  | Error [ v ] ->
    check_int "row" 0 v.Verify.row;
    check_int "col" 0 v.Verify.col;
    check_int "expected entry" 2 v.Verify.expected;
    check_true "true forced port" (v.Verify.usable = [ 1 ])
  | Error _ -> Alcotest.fail "expected exactly one violation"

let test_usable_ports_semantics () =
  (* on C6, going to the antipode: both directions usable at stretch 1 *)
  let g = Umrs_graph.Generators.cycle 6 in
  let dist = Bfs.all_pairs g in
  let u =
    Verify.usable_ports g ~dist ~src:0 ~dst:3 ~bound:Verify.shortest_paths_only
  in
  check_int "two usable" 2 (List.length u);
  (* to a neighbour: only the direct edge under strict < 2 (other way
     has length 5 > 2*1) *)
  let u2 = Verify.usable_ports g ~dist ~src:0 ~dst:1 ~bound:Verify.below_two in
  check_int "one usable" 1 (List.length u2)


let test_brute_force_definition1 () =
  (* independent of Verify: enumerate every assignment of ports at the
     constrained vertices; only M itself delivers within stretch < 2 *)
  List.iter
    (fun m ->
      let t = Cgraph.of_matrix m in
      let c = Brute.census t ~num:2 ~den:1 ~strict:true in
      check_true (Matrix.to_string m) (Brute.definition1_holds t);
      check_int "unique survivor" 1 c.Brute.within_stretch;
      check_true "wrong assignments loop" (c.Brute.delivering <= c.Brute.total))
    (Enumerate.canonical_set ~p:2 ~q:2 ~d:3 ())

let test_brute_force_relaxed_bound () =
  (* at stretch <= 4 (non-strict), alternative assignments survive:
     the forcing is specific to the < 2 regime *)
  let m = Matrix.create [| [| 1; 2 |]; [| 1; 2 |] |] in
  let t = Cgraph.of_matrix m in
  let c = Brute.census t ~num:4 ~den:1 ~strict:false in
  check_true "more survivors at stretch 4" (c.Brute.within_stretch >= 1)

(* ---------- check against a per-cell oracle ---------- *)

(* Verify.check as defined: usable_ports on all-pairs distances per
   cell, violations in row-major order; cells are taken last to first,
   so the first that raises sets the exception. *)
let check_oracle g ~constrained ~targets m ~bound =
  let dist = Bfs.all_pairs g in
  let p, q = Matrix.dims m in
  let cell (i, j) =
    let usable = Verify.usable_ports g ~dist ~src:constrained.(i) ~dst:targets.(j) ~bound in
    let expected = Matrix.get m i j in
    if usable = [ expected ] then None else Some { Verify.row = i; col = j; expected; usable }
  in
  let cells = List.concat_map (fun i -> List.init q (fun j -> (i, j))) (List.init p Fun.id) in
  match List.filter_map cell (List.rev cells) with
  | [] -> Ok ()
  | vs -> Error (List.rev vs)

(* A graph of constraints, padded or not, with its own matrix or one
   with entries moved to another port (one past the row's alphabet
   included); now and then a target swapped for any vertex, which may
   be a constrained one. *)
let verify_case =
  let matrices = Gen.matrix_normalized ~max_p:4 ~max_q:8 ~max_d:8 () in
  let print (t, m, targets) =
    Printf.sprintf "cgraph of %s, order %d\nchecked matrix %s, targets %s"
      (Matrix.to_string t.Cgraph.matrix) (Graph.order t.Cgraph.graph) (Matrix.to_string m)
      (String.concat " " (Array.to_list (Array.map string_of_int targets)))
  in
  Gen.make ~print (fun st ->
      let m = matrices.Gen.gen st in
      let t = Cgraph.of_matrix m in
      let t =
        if Random.State.bool st then t
        else Cgraph.pad_to_order t ~n:(Graph.order t.Cgraph.graph + 1 + Random.State.int st 6)
      in
      let p, q = Matrix.dims m in
      let m' =
        if Random.State.bool st then m
        else
          Matrix.create_relaxed
            (Array.init p (fun i ->
                 Array.init q (fun j ->
                     if Random.State.int st 4 > 0 then Matrix.get m i j
                     else 1 + Random.State.int st (Matrix.row_alphabet m i + 1))))
      in
      let targets = Array.copy t.Cgraph.targets in
      if Random.State.int st 4 = 0 then
        targets.(Random.State.int st q) <- Random.State.int st (Graph.order t.Cgraph.graph);
      (t, m', targets))

let check_matches_oracle (t, m, targets) =
  let g = t.Cgraph.graph and constrained = t.Cgraph.constrained in
  let outcome f = match f () with r -> Ok r | exception Invalid_argument msg -> Error msg in
  List.for_all
    (fun bound ->
      outcome (fun () -> Verify.check g ~constrained ~targets m ~bound)
      = outcome (fun () -> check_oracle g ~constrained ~targets m ~bound))
    [ Verify.below_two; Verify.shortest_paths_only; { Verify.num = 2; den = 1; strict = false } ]

let suite =
  [
    case "3-level structure and port wiring" test_structure;
    case "constrained-target distance is 2" test_distances;
    case "unique shortest path" test_unique_short_path;
    case "forced ports below stretch 2" test_forced_below_two;
    case "forcing fails at stretch 2" test_not_forced_at_two;
    case "all of dM(2,3) forced" test_all_small_matrices_forced;
    case "pad_to_order" test_pad_to_order;
    case "violations are reported" test_violation_reporting;
    case "brute force: only M survives stretch < 2" test_brute_force_definition1;
    case "brute force: survivors reappear at stretch 4" test_brute_force_relaxed_bound;
    case "usable_ports semantics" test_usable_ports_semantics;
    prop ~count:150 "cgraph respects Lemma 2 on random matrices"
      arbitrary_matrix (fun m ->
        let t = Cgraph.of_matrix m in
        let g = t.Cgraph.graph in
        let p, q = Matrix.dims m in
        let d = Matrix.max_entry m in
        Graph.order g <= Cgraph.order_bound ~p ~q ~d
        && Bfs.is_connected g
        &&
        match Verify.check_cgraph t ~bound:Verify.below_two with
        | Ok () -> true
        | Error _ -> false);
    prop ~count:15 "brute census agrees with Verify on small matrices"
      (QCheck.make ~print:Umrs_core.Matrix.to_string
         (QCheck.Gen.map
            (fun (seed, pq) ->
              let p = 1 + (abs pq mod 2) and q = 2 in
              let st = Random.State.make [| seed |] in
              Matrix.create
                (Array.init p (fun _ ->
                     Canonical.normalize_row
                       (Array.init q (fun _ -> 1 + Random.State.int st 3)))))
            QCheck.Gen.(pair int int)))
      (fun m ->
        let t = Cgraph.of_matrix m in
        (* Verify says forced below 2; Brute must then find exactly one
           surviving assignment, namely M *)
        Brute.definition1_holds t);
    prop ~count:60 "padding preserves the forced property" arbitrary_matrix
      (fun m ->
        let t = Cgraph.of_matrix m in
        let n = Graph.order t.Cgraph.graph + 5 in
        let t' = Cgraph.pad_to_order t ~n in
        Graph.order t'.Cgraph.graph = n
        &&
        match Verify.check_cgraph t' ~bound:Verify.below_two with
        | Ok () -> true
        | Error _ -> false);
    Gen.prop ~count:300 "check = per-cell usable_ports, perturbed matrices" verify_case
      check_matches_oracle;
  ]
