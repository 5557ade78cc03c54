(* Seeded property-testing kernel for the suite.

   Every random test in the repo draws from one explicit PRNG so a
   failure is reproducible from its printed seed: a run derives case
   [k] from [Random.State.make [| seed; k |]], and a falsified property
   reports [seed], [k], the counterexample, and its shrunk form. Re-run
   the same binary with [UMRS_TEST_SEED=<seed>] (or pass [~seed]) to
   replay the exact sequence - the repro-seed convention documented in
   doc/TUTORIAL.md.

   Generators cover the paper's objects: matrices over {1..d} (raw,
   normalized-row, and canonical representatives of dM(p,q)),
   row/column/alphabet permutations, and random connected graphs and
   trees. Shrinking is structural (drop a row, drop a column, send an
   entry to 1), so reported counterexamples are small. *)

open Umrs_core
open Umrs_graph

type 'a t = {
  gen : Random.State.t -> 'a;
  print : 'a -> string;
  shrink : 'a -> 'a Seq.t;
}

let make ?(print = fun _ -> "<opaque>") ?(shrink = fun _ -> Seq.empty) gen =
  { gen; print; shrink }

let default_seed = 0x5EED42

let base_seed () =
  match Sys.getenv_opt "UMRS_TEST_SEED" with
  | None -> default_seed
  | Some s -> (
    match int_of_string_opt s with
    | Some v -> v
    | None -> invalid_arg "UMRS_TEST_SEED must be an integer")

(* ---------- runner ---------- *)

let shrink_budget = 1000

let run ?(count = 100) ?seed name arb f =
  let seed = match seed with Some s -> s | None -> base_seed () in
  let holds x = match f x with b -> b | exception _ -> false in
  let exn_of x = match f x with _ -> None | exception e -> Some e in
  for k = 0 to count - 1 do
    let st = Random.State.make [| seed; k |] in
    let x = arb.gen st in
    if not (holds x) then begin
      let steps = ref 0 in
      let rec minimize x =
        if !steps >= shrink_budget then x
        else
          match Seq.find (fun y -> incr steps; not (holds y)) (arb.shrink x) with
          | Some y -> minimize y
          | None -> x
      in
      let y = minimize x in
      let raised e = Printf.sprintf " (raised %s)" (Printexc.to_string e) in
      let exn_note x = Option.fold ~none:"" ~some:raised (exn_of x) in
      Alcotest.failf
        "%s: falsified%s\n  counterexample: %s\n  shrunk:         %s%s\n\
        \  reproduce with UMRS_TEST_SEED=%d (case %d of %d)"
        name (exn_note x) (arb.print x) (arb.print y) (exn_note y) seed k count
    end
  done

let prop ?count ?seed name arb f =
  Alcotest.test_case name `Quick (fun () -> run ?count ?seed name arb f)

(* ---------- scalar and permutation generators ---------- *)

let int_range lo hi =
  if hi < lo then invalid_arg "Gen.int_range";
  make
    ~print:string_of_int
    ~shrink:(fun v -> if v > lo then Seq.return lo else Seq.empty)
    (fun st -> lo + Random.State.int st (hi - lo + 1))

let perm ?(max_n = 8) () =
  let print p =
    "[" ^ String.concat " " (Array.to_list (Array.map string_of_int p)) ^ "]"
  in
  make ~print (fun st -> Perm.random st (1 + Random.State.int st max_n))

(* An int row of 1 to 24 entries (either side of the 16 at which
   Matrix.distinct_values stops using an insertion sort), or of 200 to
   260, drawn from a few values, from 1..width, from the positive ints
   within 2^30 of 1 or of max_int, or from all of int: within 2^29 of 0
   (negative included), of max_int or of min_int. *)
let int_row =
  let print r = String.concat " " (Array.to_list (Array.map string_of_int r)) in
  make ~print (fun st ->
      let q =
        if Random.State.int st 4 = 0 then 200 + Random.State.int st 61
        else 1 + Random.State.int st 24
      in
      let draw =
        match Random.State.int st 4 with
        | 0 -> fun () -> 1 + Random.State.int st 3
        | 1 -> fun () -> 1 + Random.State.int st q
        | 2 ->
          fun () ->
            let x = Random.State.bits st in
            if Random.State.bool st then 1 + x else max_int - x
        | _ ->
          fun () ->
            let x = Random.State.bits st - (1 lsl 29) in
            (match Random.State.int st 3 with 0 -> x | 1 -> max_int - abs x | _ -> min_int + abs x)
      in
      Array.init q (fun _ -> draw ()))

(* ---------- matrix generators ---------- *)

let print_matrix = Matrix.to_string

let submatrix m ~p ~q =
  Matrix.create_relaxed (Array.init p (fun i -> Array.init q (Matrix.get m i)))

let shrink_matrix m =
  let p, q = Matrix.dims m in
  let structural =
    List.filter_map Fun.id
      [ (if p > 1 then Some (submatrix m ~p:(p - 1) ~q) else None);
        (if q > 1 then Some (submatrix m ~p ~q:(q - 1)) else None) ]
  in
  let entries =
    List.concat_map
      (fun i ->
        List.filter_map
          (fun j ->
            if Matrix.get m i j > 1 then
              Some
                (Matrix.create_relaxed
                   (Array.init p (fun a ->
                        Array.init q (fun b ->
                            if a = i && b = j then 1 else Matrix.get m a b))))
            else None)
          (List.init q Fun.id))
      (List.init p Fun.id)
  in
  List.to_seq (structural @ entries)

let raw_entries st ~p ~q ~d =
  Array.init p (fun _ -> Array.init q (fun _ -> 1 + Random.State.int st d))

(* Arbitrary matrix over {1..d}: no row-normalization constraint. *)
let matrix ?(max_p = 4) ?(max_q = 4) ?(max_d = 4) () =
  make ~print:print_matrix ~shrink:shrink_matrix (fun st ->
      let p = 1 + Random.State.int st max_p
      and q = 1 + Random.State.int st max_q
      and d = 1 + Random.State.int st max_d in
      Matrix.create_relaxed (raw_entries st ~p ~q ~d))

(* Matrix with normalized rows ({!Matrix.create} acceptance) - shrunk
   candidates are re-normalized so they stay in the class. *)
let matrix_normalized ?(max_p = 4) ?(max_q = 4) ?(max_d = 4) () =
  let normalize m =
    let p, q = Matrix.dims m in
    Matrix.create
      (Array.init p (fun i ->
           Canonical.normalize_row (Array.init q (Matrix.get m i))))
  in
  make ~print:print_matrix
    ~shrink:(fun m -> Seq.map normalize (shrink_matrix m))
    (fun st ->
      let p = 1 + Random.State.int st max_p
      and q = 1 + Random.State.int st max_q
      and d = 1 + Random.State.int st max_d in
      Matrix.create
        (Array.map Canonical.normalize_row (raw_entries st ~p ~q ~d)))

(* A member of dM(p,q): the canonical representative of a random
   matrix. Shrunk candidates are canonicalized so they stay members. *)
let canonical_matrix ?(variant = Canonical.Full) ?max_p ?max_q ?max_d () =
  let inner = matrix ?max_p ?max_q ?max_d () in
  make ~print:print_matrix
    ~shrink:(fun m -> Seq.map (Canonical.canonical ~variant) (shrink_matrix m))
    (fun st -> Canonical.canonical ~variant (inner.gen st))

(* ---------- graph generators ---------- *)

let print_graph g = Format.asprintf "%a" Graph.pp g

(* Small random connected graph: n in [2, 24], m up to ~2n. *)
let connected_graph ?(max_n = 24) () =
  make ~print:print_graph (fun st ->
      let n = 2 + Random.State.int st (max_n - 1) in
      let max_m = n * (n - 1) / 2 in
      let m = min max_m (n - 1 + Random.State.int st (n + 1)) in
      Generators.random_connected st ~n ~m)

let tree ?(max_n = 32) () =
  make ~print:print_graph (fun st ->
      Generators.random_tree st (2 + Random.State.int st (max_n - 1)))
