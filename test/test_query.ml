open Umrs_core
open Umrs_store
open Helpers
module Q = Query
module Fault = Umrs_fault.Fault

(* ---------- fixtures ---------- *)

let with_tmp_dir f =
  let dir = Filename.temp_file "umrs_query" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let ok_exn what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Q.error_to_string e)

(* ---------- differential testing vs a naive oracle ----------

   A random corpus spec: a sorted duplicate-free list of arbitrary
   matrices over {1..d} (Positional variant, so records need not be
   canonical), a stride, and probe matrices for negative lookups. The
   oracle is Corpus.load plus list scans; Query must agree exactly. *)

type spec = {
  s_p : int;
  s_q : int;
  s_d : int;
  s_ms : Matrix.t list;
  s_stride : int;
  s_probes : Matrix.t list;
}

let spec_arb =
  let pool =
    [| (1, 1, 2); (1, 3, 3); (2, 2, 3); (2, 3, 3); (3, 2, 4); (2, 4, 2);
       (4, 4, 2); (3, 3, 3) |]
  in
  Gen.make
    ~print:(fun s ->
      Printf.sprintf "p=%d q=%d d=%d count=%d stride=%d" s.s_p s.s_q s.s_d
        (List.length s.s_ms) s.s_stride)
    (fun st ->
      let s_p, s_q, s_d = pool.(Random.State.int st (Array.length pool)) in
      let raw () =
        Matrix.create_relaxed
          (Array.init s_p (fun _ ->
               Array.init s_q (fun _ -> 1 + Random.State.int st s_d)))
      in
      let n = Random.State.int st 80 in
      let s_ms = List.sort_uniq Matrix.compare_lex (List.init n (fun _ -> raw ())) in
      { s_p; s_q; s_d; s_ms; s_stride = 1 + Random.State.int st 12;
        s_probes = List.init 15 (fun _ -> raw ()) })

let oracle_rank arr m =
  Array.fold_left (fun acc x -> if Matrix.compare_lex x m < 0 then acc + 1 else acc) 0 arr

let oracle_mem arr m = Array.exists (fun x -> Matrix.compare_lex x m = 0) arr

let oracle_range arr prefix =
  ( Array.fold_left
      (fun acc x -> if Matrix.compare_lex_prefix prefix x > 0 then acc + 1 else acc)
      0 arr,
    Array.fold_left
      (fun acc x -> if Matrix.compare_lex_prefix prefix x >= 0 then acc + 1 else acc)
      0 arr )

let check_spec s =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "c.umrs" in
  ignore
    (Corpus.write_list ~path ~variant:Canonical.Positional ~p:s.s_p ~q:s.s_q
       ~d:s.s_d s.s_ms);
  ignore (ok_exn "build" (Q.build ~corpus:path ~stride:s.s_stride ()));
  let t = ok_exn "open" (Q.open_ ~corpus:path ()) in
  Fun.protect ~finally:(fun () -> Q.close t) @@ fun () ->
  let arr = Array.of_list s.s_ms in
  let n = Array.length arr in
  let members_ok =
    Array.for_all Fun.id
      (Array.mapi
         (fun i m ->
           Matrix.compare_lex (Q.nth t i) m = 0 && Q.mem t m && Q.rank t m = i)
         arr)
  in
  let probes_ok =
    List.for_all
      (fun m -> Q.mem t m = oracle_mem arr m && Q.rank t m = oracle_rank arr m)
      s.s_probes
  in
  let prefixes_ok =
    List.for_all
      (fun m ->
        List.for_all
          (fun len ->
            let prefix =
              Array.init len (fun k -> Matrix.get m (k / s.s_q) (k mod s.s_q))
            in
            Q.range_prefix t prefix = oracle_range arr prefix)
          (List.init (s.s_p * s.s_q + 1) Fun.id))
      (match s.s_probes with [] -> [] | hd :: _ -> List.filteri (fun i _ -> i < 4) s.s_ms @ [ hd ])
  in
  let requests =
    Array.of_list
      (List.concat
         [ List.init n (fun i -> Q.Nth (n - 1 - i));
           List.map (fun m -> Q.Mem m) s.s_probes;
           List.map (fun m -> Q.Rank m) s.s_probes;
           List.filteri (fun i _ -> i < 3) s.s_ms
           |> List.map (fun m -> Q.Range_prefix [| Matrix.get m 0 0 |]);
           List.init (min n 5) (fun i -> Q.Cgraph_of i) ])
  in
  let singles =
    Array.map
      (function
        | Q.Nth i -> Q.R_matrix (Q.nth t i)
        | Q.Mem m -> Q.R_found (Q.mem t m)
        | Q.Rank m -> Q.R_rank (Q.rank t m)
        | Q.Range_prefix prefix ->
          let lo, hi = Q.range_prefix t prefix in
          Q.R_range (lo, hi)
        | Q.Cgraph_of i -> Q.R_graph (Q.cgraph t i))
      requests
  in
  let batch_ok =
    Q.batch ~domains:1 t requests = singles
    && Q.batch ~domains:3 t requests = singles
    && Q.batch t requests = singles
  in
  members_ok && probes_ok && prefixes_ok && batch_ok

(* ---------- deterministic cases ---------- *)

let reference_corpus dir =
  let p, q, d = (2, 4, 3) in
  let path = Filename.concat dir "ref.umrs" in
  let ms = Enumerate.canonical_set ~p ~q ~d () in
  ignore (Corpus.write_list ~path ~variant:Canonical.Full ~p ~q ~d ms);
  (path, Array.of_list ms)

let test_roundtrip_reference () =
  with_tmp_dir @@ fun dir ->
  let path, arr = reference_corpus dir in
  let m = ok_exn "build" (Q.build ~corpus:path ~stride:4 ()) in
  check_int "samples" ((Array.length arr + 3) / 4) m.Q.x_samples;
  check_true "index file exists" (Sys.file_exists (Q.index_path path));
  let t = ok_exn "open" (Q.open_ ~corpus:path ()) in
  Array.iteri
    (fun i x ->
      check_true "nth" (Matrix.equal (Q.nth t i) x);
      check_true "mem" (Q.mem t x);
      check_int "rank" i (Q.rank t x))
    arr;
  check_true "whole-corpus range"
    (Q.range_prefix t [||] = (0, Array.length arr));
  Q.close t;
  check_true "closed nth raises"
    (match Q.nth t 0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_cgraph_bridge () =
  with_tmp_dir @@ fun dir ->
  let path, arr = reference_corpus dir in
  ignore (ok_exn "build" (Q.build ~corpus:path ()));
  let t = ok_exn "open" (Q.open_ ~corpus:path ()) in
  Fun.protect ~finally:(fun () -> Q.close t) @@ fun () ->
  Array.iteri
    (fun i m ->
      (* Full-variant records are canonical, hence already normalized:
         the bridge must agree with Cgraph.of_matrix directly. *)
      let g = Q.cgraph t i in
      check_true "cgraph" (g = Cgraph.of_matrix m))
    arr

let test_empty_and_degenerate () =
  with_tmp_dir @@ fun dir ->
  (* empty corpus *)
  let empty = Filename.concat dir "empty.umrs" in
  ignore (Corpus.write_list ~path:empty ~variant:Canonical.Full ~p:2 ~q:2 ~d:3 []);
  ignore (ok_exn "build empty" (Q.build ~corpus:empty ()));
  let t = ok_exn "open empty" (Q.open_ ~corpus:empty ()) in
  let probe = Matrix.create [| [| 1; 1 |]; [| 1; 1 |] |] in
  check_true "empty mem" (not (Q.mem t probe));
  check_int "empty rank" 0 (Q.rank t probe);
  check_true "empty range" (Q.range_prefix t [| 1 |] = (0, 0));
  check_true "empty nth raises"
    (match Q.nth t 0 with _ -> false | exception Invalid_argument _ -> true);
  Q.close t;
  (* d = 1: records pack to zero bytes; only one matrix exists *)
  let one = Filename.concat dir "one.umrs" in
  let m1 = Matrix.create [| [| 1; 1 |] |] in
  ignore (Corpus.write_list ~path:one ~variant:Canonical.Full ~p:1 ~q:2 ~d:1 [ m1 ]);
  ignore (ok_exn "build d=1" (Q.build ~corpus:one ()));
  let t = ok_exn "open d=1" (Q.open_ ~corpus:one ()) in
  check_true "d=1 nth" (Matrix.equal (Q.nth t 0) m1);
  check_true "d=1 mem" (Q.mem t m1);
  check_int "d=1 rank" 0 (Q.rank t m1);
  Q.close t

let test_error_paths () =
  with_tmp_dir @@ fun dir ->
  let path, _ = reference_corpus dir in
  (* no index yet *)
  check_true "missing index is Io"
    (match Q.open_ ~corpus:path () with
    | Error (Q.Io _) -> true
    | _ -> false);
  (* stride validation is a caller error *)
  check_true "stride < 1 raises"
    (match Q.build ~corpus:path ~stride:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  ignore (ok_exn "build" (Q.build ~corpus:path ()));
  (* an index of a different corpus: same instance, fewer records *)
  let other = Filename.concat dir "other.umrs" in
  let ms = Enumerate.canonical_set ~p:2 ~q:4 ~d:3 () in
  ignore
    (Corpus.write_list ~path:other ~variant:Canonical.Full ~p:2 ~q:4 ~d:3
       (List.filteri (fun i _ -> i > 0) ms));
  ignore (ok_exn "build other" (Q.build ~corpus:other ()));
  check_true "foreign index is Mismatch"
    (match Q.open_ ~corpus:path ~index:(Q.index_path other) () with
    | Error (Q.Mismatch _) -> true
    | _ -> false);
  (* different instance entirely *)
  let alien = Filename.concat dir "alien.umrs" in
  ignore
    (Corpus.write_list ~path:alien ~variant:Canonical.Full ~p:2 ~q:2 ~d:2
       (Enumerate.canonical_set ~p:2 ~q:2 ~d:2 ()));
  ignore (ok_exn "build alien" (Q.build ~corpus:alien ()));
  check_true "alien index is Mismatch"
    (match Q.open_ ~corpus:path ~index:(Q.index_path alien) () with
    | Error (Q.Mismatch _) -> true
    | _ -> false);
  (* shape validation on point queries *)
  let t = ok_exn "open" (Q.open_ ~corpus:path ()) in
  Fun.protect ~finally:(fun () -> Q.close t) @@ fun () ->
  check_true "wrong shape raises"
    (match Q.mem t (Matrix.create [| [| 1 |] |]) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_true "long prefix raises"
    (match Q.range_prefix t (Array.make 9 1) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_true "batch validates up front"
    (match Q.batch t [| Q.Nth 0; Q.Nth 99999 |] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Every failing open must close what it opened: loop the error
   branches far past the default 1024-descriptor rlimit, so a leak on
   any branch either trips EMFILE mid-loop or shows up in the final
   /proc/self/fd count. *)
let count_fds () = Array.length (Sys.readdir "/proc/self/fd")

let test_error_paths_do_not_leak_fds () =
  with_tmp_dir @@ fun dir ->
  let path, _ = reference_corpus dir in
  ignore (ok_exn "build" (Q.build ~corpus:path ()));
  let corrupt = Filename.concat dir "corrupt.umrsx" in
  let image =
    let ic = open_in_bin (Q.index_path path) in
    let n = in_channel_length ic in
    let b = Bytes.create n in
    really_input ic b 0 n;
    close_in ic;
    b
  in
  let last = Bytes.length image - 1 in
  Bytes.set image last (Char.chr (Char.code (Bytes.get image last) lxor 0xFF));
  let oc = open_out_bin corrupt in
  output_bytes oc image;
  close_out oc;
  let junk = Filename.concat dir "junk.umrs" in
  let oc = open_out_bin junk in
  output_string oc "this is not a corpus file, but it is long enough to try";
  close_out oc;
  let before = count_fds () in
  for _ = 1 to 2000 do
    (match Q.open_ ~corpus:path ~index:(Filename.concat dir "no.umrsx") () with
    | Error (Q.Io _) -> ()
    | _ -> Alcotest.fail "missing index should be Io");
    (match Q.open_ ~corpus:path ~index:corrupt () with
    | Error (Q.Malformed _) -> ()
    | _ -> Alcotest.fail "corrupt index should be Malformed");
    (match Q.open_ ~corpus:junk ~index:(Q.index_path path) () with
    | Error _ -> ()
    | Ok t ->
      Q.close t;
      Alcotest.fail "junk corpus should not open");
    (match Corpus.open_reader ~path:junk with
    | exception Invalid_argument _ -> ()
    | r ->
      Corpus.close_reader r;
      Alcotest.fail "junk reader should not open")
  done;
  (* and the success path balances too *)
  for _ = 1 to 50 do
    let t = ok_exn "open" (Q.open_ ~corpus:path ()) in
    Q.close t
  done;
  check_int "fd count unchanged across open error branches" before
    (count_fds ())

let test_stride_extremes () =
  with_tmp_dir @@ fun dir ->
  let path, arr = reference_corpus dir in
  List.iter
    (fun stride ->
      let out = Filename.concat dir (Printf.sprintf "s%d.umrsx" stride) in
      ignore (ok_exn "build" (Q.build ~corpus:path ~stride ~out ()));
      let t = ok_exn "open" (Q.open_ ~corpus:path ~index:out ()) in
      Array.iteri
        (fun i m ->
          check_true "nth" (Matrix.equal (Q.nth t i) m);
          check_int "rank" i (Q.rank t m))
        arr;
      Q.close t)
    [ 1; 2; Array.length arr; 10 * Array.length arr ]

(* Mapped and buffered readers are two code paths over the same bytes:
   every answer must be identical, record for record. *)
let test_mmap_matches_buffered () =
  with_tmp_dir @@ fun dir ->
  let path, arr = reference_corpus dir in
  ignore (ok_exn "build" (Q.build ~corpus:path ()));
  let buffered = ok_exn "open buffered" (Q.open_ ~corpus:path ~mmap:false ()) in
  Fun.protect ~finally:(fun () -> Q.close buffered) @@ fun () ->
  let mapped = ok_exn "open mapped" (Q.open_ ~corpus:path ~mmap:true ()) in
  Fun.protect ~finally:(fun () -> Q.close mapped) @@ fun () ->
  let n = Array.length arr in
  check_true "corpus non-trivial" (n >= 3);
  for i = 0 to n - 1 do
    check_true "nth identical"
      (Matrix.compare_lex (Q.nth mapped i) (Q.nth buffered i) = 0);
    check_true "cgraph identical" (Q.cgraph mapped i = Q.cgraph buffered i);
    let m = arr.(i) in
    check_true "mem identical" (Q.mem mapped m = Q.mem buffered m);
    check_int "rank identical" (Q.rank buffered m) (Q.rank mapped m)
  done;
  List.iter
    (fun prefix ->
      check_true "range_prefix identical"
        (Q.range_prefix mapped prefix = Q.range_prefix buffered prefix))
    [ [||]; [| 1 |]; [| 2; 1 |]; [| 3; 3; 3 |] ];
  (* batch runs through worker domains sharing one mapping *)
  let reqs = Array.init n (fun i -> Q.Nth i) in
  check_true "batched reads identical"
    (Q.batch ~domains:3 mapped reqs = Q.batch ~domains:3 buffered reqs)

(* Query.build crashed by a simulated power loss at each of its fault
   points leaves either no index or one that opens. *)
let test_build_crash_leaves_no_torn_index () =
  with_tmp_dir @@ fun dir ->
  let path, _ = reference_corpus dir in
  let idx = Q.index_path path in
  let build () = Q.build ~corpus:path () in
  let counted = Fault.with_plan (Fault.pass_plan ~seed:1 ()) build in
  check_true "the counted build succeeds"
    (match counted.Fault.outcome with Ok (Ok _) -> true | _ -> false);
  check_true "the build reaches fault points" (counted.Fault.points > 0);
  for at = 0 to counted.Fault.points - 1 do
    List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ idx; idx ^ ".tmp" ];
    let r = Fault.with_plan (Fault.crash_at ~seed:at ~at ()) build in
    check_true (Printf.sprintf "crashed at %d" at) (r.Fault.outcome = Error ());
    check_true
      (Printf.sprintf "crash at %d: no index or one that opens" at)
      ((not (Sys.file_exists idx))
      ||
      match Q.open_ ~corpus:path () with
      | Ok q ->
        Q.close q;
        true
      | Error _ -> false)
  done

let suite =
  [
    case "reference corpus roundtrip" test_roundtrip_reference;
    case "cgraph bridge" test_cgraph_bridge;
    case "empty and d=1 corpora" test_empty_and_degenerate;
    case "error paths" test_error_paths;
    case "error paths do not leak fds" test_error_paths_do_not_leak_fds;
    case "stride extremes" test_stride_extremes;
    case "mmap reader matches buffered reader byte for byte"
      test_mmap_matches_buffered;
    Gen.prop ~count:60 "query agrees with the naive oracle" spec_arb check_spec;
    case "a crashed build leaves no torn index" test_build_crash_leaves_no_torn_index;
  ]
