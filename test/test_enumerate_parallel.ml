(* The parallel enumeration engine: sequential and sharded runs must
   be byte-identical for any domain count; packed matrix keys must
   collide exactly on equal matrices across all three representations
   (one int, two ints, bytes fallback); the configurable cap must
   report the offending d^(pq). *)

open Umrs_core
open Helpers

let show_set set = String.concat "|" (List.map Matrix.to_string set)

let grid =
  [ (1, 2, 2); (2, 2, 2); (2, 2, 3); (2, 3, 2); (3, 2, 2); (2, 2, 4);
    (2, 3, 3); (3, 3, 2) ]

let test_seq_vs_parallel_full () =
  List.iter
    (fun (p, q, d) ->
      let seq = Enumerate.canonical_set ~domains:1 ~p ~q ~d () in
      List.iter
        (fun domains ->
          let par = Enumerate.canonical_set ~domains ~p ~q ~d () in
          Alcotest.(check string)
            (Printf.sprintf "(%d,%d,%d) domains=%d" p q d domains)
            (show_set seq) (show_set par))
        [ 2; 3; 5; 8 ])
    grid

let test_seq_vs_parallel_positional () =
  List.iter
    (fun (p, q, d) ->
      let variant = Canonical.Positional in
      let seq = Enumerate.canonical_set ~variant ~domains:1 ~p ~q ~d () in
      let par = Enumerate.canonical_set ~variant ~domains:4 ~p ~q ~d () in
      Alcotest.(check string)
        (Printf.sprintf "positional (%d,%d,%d)" p q d)
        (show_set seq) (show_set par))
    [ (2, 2, 2); (2, 3, 2); (3, 2, 2); (2, 2, 3) ]

let test_parallel_matches_burnside () =
  List.iter
    (fun (p, q, d) ->
      check_int
        (Printf.sprintf "burnside (%d,%d,%d)" p q d)
        (Option.get (Bignat.to_int_opt (Count.full_exact ~p ~q ~d)))
        (Enumerate.count ~domains:4 ~p ~q ~d ()))
    grid

let test_parallel_class_sizes_partition () =
  List.iter
    (fun (p, q, d) ->
      let set = Enumerate.canonical_set ~domains:3 ~p ~q ~d () in
      let total =
        List.fold_left
          (fun acc m -> acc + Enumerate.class_size ~domains:3 ~p ~q ~d m)
          0 set
      in
      let raw = int_of_float (Float.pow (float_of_int d) (float_of_int (p * q))) in
      check_int (Printf.sprintf "partition (%d,%d,%d)" p q d) raw total)
    [ (2, 2, 3); (2, 3, 2); (3, 2, 2) ]

let test_cap_configurable () =
  (* a lowered cap rejects instances the default allows... *)
  check_true "cap 100 rejects 4^4 = 256"
    (try
       ignore (Enumerate.canonical_set ~cap:100 ~p:2 ~q:2 ~d:4 ());
       false
     with Invalid_argument msg ->
       (* ...and the message names the offending value and the cap *)
       let contains s sub =
         let n = String.length s and m = String.length sub in
         let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
         go 0
       in
       contains msg "256" && contains msg "100");
  check_true "cap 100 still admits 3^4 = 81"
    (List.length (Enumerate.canonical_set ~cap:100 ~p:2 ~q:2 ~d:3 ()) = 3);
  (* ...and raising the cap admits what a lower cap rejected *)
  check_true "cap 300 admits 4^4 = 256"
    (Enumerate.count ~cap:300 ~p:2 ~q:2 ~d:4 () = 3);
  check_true "default cap unchanged"
    (Enumerate.default_cap = 1 lsl 22);
  check_true "default cap still rejects 5^16"
    (try
       ignore (Enumerate.count ~p:4 ~q:4 ~d:5 ());
       false
     with Invalid_argument _ -> true)

let test_iter_entries_range_partition () =
  (* the shard iterator covers the digit space exactly, in order *)
  let p = 2 and q = 2 and d = 3 in
  let whole = ref [] in
  Enumerate.iter_matrices ~p ~q ~d (fun m -> whole := Matrix.to_string m :: !whole);
  let pieces = ref [] in
  List.iter
    (fun (lo, hi) ->
      Enumerate.iter_entries_range ~p ~q ~d ~lo ~hi (fun e ->
          pieces := Matrix.to_string (Matrix.create_relaxed e) :: !pieces))
    [ (0, 17); (17, 17); (17, 64); (64, 81) ];
  Alcotest.(check (list string))
    "sharded iteration = whole iteration" (List.rev !whole) (List.rev !pieces)

(* --- packed keys ---------------------------------------------------- *)

let random_matrix st ~p ~q ~base =
  Matrix.create_relaxed
    (Array.init p (fun _ ->
         Array.init q (fun _ -> 1 + Random.State.int st base)))

let key_collision_prop ~p ~q ~base ~count name =
  let st = rng () in
  for _ = 1 to count do
    let a = random_matrix st ~p ~q ~base in
    let b = random_matrix st ~p ~q ~base in
    let ka = Mkey.of_matrix ~base a and kb = Mkey.of_matrix ~base b in
    check_true
      (Printf.sprintf "%s: keys agree with equality" name)
      (Mkey.equal ka kb = Matrix.equal a b);
    check_true
      (Printf.sprintf "%s: key is deterministic" name)
      (Mkey.equal ka (Mkey.of_matrix ~base a))
  done

let test_packed_key_one_word () =
  (* 18 + 4*4*2 = 50 bits: single-int representation *)
  check_true "K1 regime is packed"
    (Mkey.is_packed
       (Mkey.of_matrix ~base:4 (random_matrix (rng ()) ~p:4 ~q:4 ~base:4)));
  key_collision_prop ~p:4 ~q:4 ~base:4 ~count:300 "one-word"

let test_packed_key_two_words () =
  (* 18 + 2*16*3 = 114 bits: two-int representation *)
  check_true "K2 regime is packed"
    (Mkey.is_packed
       (Mkey.of_matrix ~base:8 (random_matrix (rng ()) ~p:2 ~q:16 ~base:8)));
  key_collision_prop ~p:2 ~q:16 ~base:8 ~count:300 "two-word"

let test_packed_key_bytes_fallback () =
  (* 18 + 6*16*3 = 306 bits: bytes fallback *)
  check_true "KBig regime is not packed"
    (not
       (Mkey.is_packed
          (Mkey.of_matrix ~base:8 (random_matrix (rng ()) ~p:6 ~q:16 ~base:8))));
  key_collision_prop ~p:6 ~q:16 ~base:8 ~count:150 "bytes"

let test_packed_key_shape_disambiguation () =
  (* same digit stream, different shapes: the header must separate them *)
  let a = Matrix.create_relaxed [| [| 1; 2 |] |] in
  let b = Matrix.create_relaxed [| [| 1 |]; [| 2 |] |] in
  check_true "1x2 vs 2x1 differ"
    (not (Mkey.equal (Mkey.of_matrix ~base:2 a) (Mkey.of_matrix ~base:2 b)));
  (* same matrix under different bases must also differ (layout changes) *)
  check_true "base is part of the key"
    (not (Mkey.equal (Mkey.of_matrix ~base:2 a) (Mkey.of_matrix ~base:3 a)))

let test_packed_key_rejects_out_of_range () =
  let m = Matrix.create_relaxed [| [| 1; 5 |] |] in
  check_true "entry > base rejected"
    (try
       ignore (Mkey.of_matrix ~base:4 m);
       false
     with Invalid_argument _ -> true)

(* The engine's hot path is documented as allocation-free: a warm
   workspace must canonicalize without touching the minor heap. *)
let test_canonical_rows_allocation_free () =
  let st = rng () in
  List.iter
    (fun (p, q, d) ->
      let entries = Gen.raw_entries st ~p ~q ~d in
      let ws = Canonical.workspace ~p ~q ~max_value:d in
      List.iter
        (fun variant ->
          ignore (Canonical.canonical_rows ws ~variant entries);
          let calls = 10_000 in
          let before = Gc.minor_words () in
          for _ = 1 to calls do
            ignore (Canonical.canonical_rows ws ~variant entries)
          done;
          let per_call = (Gc.minor_words () -. before) /. float_of_int calls in
          check_true
            (Printf.sprintf "(%d,%d,%d) %s: %.3f minor words per call" p q d
               (match variant with
               | Canonical.Full -> "full"
               | Canonical.Positional -> "positional")
               per_call)
            (per_call < 1.0))
        [ Canonical.Full; Canonical.Positional ])
    [ (3, 4, 3); (4, 8, 8) ]

let suite =
  [
    case "sequential = parallel (full group)" test_seq_vs_parallel_full;
    case "sequential = parallel (positional)" test_seq_vs_parallel_positional;
    case "parallel count = burnside closed form" test_parallel_matches_burnside;
    case "parallel class sizes partition d^(pq)" test_parallel_class_sizes_partition;
    case "cap is configurable and reported" test_cap_configurable;
    case "shard iterator partitions the space" test_iter_entries_range_partition;
    case "packed keys: one-word regime" test_packed_key_one_word;
    case "packed keys: two-word regime" test_packed_key_two_words;
    case "packed keys: bytes fallback" test_packed_key_bytes_fallback;
    case "packed keys: shape in the key" test_packed_key_shape_disambiguation;
    case "packed keys: range checking" test_packed_key_rejects_out_of_range;
    case "canonical_rows allocates nothing per call" test_canonical_rows_allocation_free;
    prop ~count:200 "workspace canonical = Canonical.canonical" arbitrary_matrix
      (fun m ->
        let p, q = Matrix.dims m in
        let ws = Canonical.workspace ~p ~q ~max_value:(Matrix.max_entry m) in
        let fast =
          Matrix.create_relaxed
            (Canonical.canonical_rows ws ~variant:Canonical.Full
               (Array.init p (fun i -> Array.init q (Matrix.get m i))))
        in
        Matrix.equal fast (Canonical.canonical m));
  ]
