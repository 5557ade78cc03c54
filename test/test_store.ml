open Umrs_core
open Umrs_store
open Helpers

(* ---------- fixtures ---------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let with_tmp_dir f =
  let dir = Filename.temp_file "umrs_store" "" in
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

let instances = [ (2, 2, 2); (2, 4, 3); (3, 3, 2) ]
let variants = [ Canonical.Full; Canonical.Positional ]

let variant_label = function
  | Canonical.Full -> "full"
  | Canonical.Positional -> "positional"

let strictly_sorted ms =
  let rec go = function
    | a :: (b :: _ as rest) -> Matrix.compare_lex a b < 0 && go rest
    | _ -> true
  in
  go ms

(* ---------- record codec ---------- *)

let test_record_roundtrip () =
  List.iter
    (fun (p, q, d) ->
      List.iter
        (fun variant ->
          List.iter
            (fun m ->
              let b = Corpus.Record.encode ~p ~q ~d m in
              check_int "record size"
                (Corpus.Record.bytes ~p ~q ~d)
                (Bytes.length b);
              check_true "record decode"
                (Matrix.equal m (Corpus.Record.decode ~p ~q ~d ~variant b)))
            (Enumerate.canonical_set ~variant ~p ~q ~d ()))
        variants)
    instances

let test_record_rejects_bad_entry () =
  let m = Matrix.create [| [| 1; 2 |]; [| 1; 2 |] |] in
  check_true "entry 2 out of range for d=1"
    (try ignore (Corpus.Record.encode ~p:2 ~q:2 ~d:1 m); false
     with Invalid_argument _ -> true);
  check_true "dimension mismatch"
    (try ignore (Corpus.Record.encode ~p:3 ~q:2 ~d:2 m); false
     with Invalid_argument _ -> true)

(* ---------- corpus round-trips ---------- *)

let test_corpus_roundtrip () =
  with_tmp_dir @@ fun dir ->
  List.iter
    (fun (p, q, d) ->
      List.iter
        (fun variant ->
          let name = Printf.sprintf "%d%d%d_%s" p q d (variant_label variant) in
          let set = Enumerate.canonical_set ~variant ~p ~q ~d () in
          let path = Filename.concat dir (name ^ ".corpus") in
          let h = Corpus.write_list ~path ~variant ~p ~q ~d set in
          check_int (name ^ " count") (List.length set) h.Corpus.count;
          let h', set' = Corpus.load ~path in
          check_true (name ^ " header") (h = h');
          check_true (name ^ " set") (List.for_all2 Matrix.equal set set');
          check_true (name ^ " order") (strictly_sorted set');
          (* Same set written twice -> byte-identical files. *)
          let path2 = Filename.concat dir (name ^ "_again.corpus") in
          ignore (Corpus.write_list ~path:path2 ~variant ~p ~q ~d set);
          check_true (name ^ " deterministic bytes")
            (read_file path = read_file path2))
        variants)
    instances

let test_corpus_byte_identity_across_domains () =
  (* The builder's output is a pure function of the instance: shard
     count must not leak into the bytes. *)
  with_tmp_dir @@ fun dir ->
  List.iter
    (fun (p, q, d) ->
      let files =
        List.map
          (fun domains ->
            let path = Filename.concat dir (Printf.sprintf "dom%d.corpus" domains) in
            ignore (Builder.build ~domains ~p ~q ~d ~out:path ());
            read_file path)
          [ 1; 2; 5 ]
      in
      match files with
      | a :: rest ->
        List.iter
          (fun b ->
            check_true
              (Printf.sprintf "(%d,%d,%d) domain-count independent" p q d)
              (a = b))
          rest
      | [] -> assert false)
    instances

(* MD5 of the (3,4,3) reference corpora in both variants and of the
   Full corpus's index at the default stride. Records are Bitbuf byte
   images, so these pin the on-disk formats independently of how
   Bitbuf moves its bits. *)
let test_corpus_golden_bytes () =
  with_tmp_dir @@ fun dir ->
  let p, q, d = (3, 4, 3) in
  let md5 path = Digest.to_hex (Digest.file path) in
  List.iter
    (fun (variant, corpus_md5, index_md5) ->
      let name = variant_label variant in
      let path = Filename.concat dir (name ^ ".corpus") in
      ignore (Builder.build ~variant ~p ~q ~d ~out:path ());
      Alcotest.(check string) (name ^ " corpus") corpus_md5 (md5 path);
      Option.iter
        (fun expected ->
          (match Query.build ~corpus:path () with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Query.error_to_string e));
          Alcotest.(check string) (name ^ " index") expected
            (md5 (Query.index_path path)))
        index_md5)
    [ (Canonical.Full, "a92e981e236bc685df6fe7a6ec515c7b",
       Some "e2e155930997ffbabf1396858afa4761");
      (Canonical.Positional, "02d5f32d4d1f9ded7aa7a7729c5989a9", None) ]

let test_corpus_streaming_reader () =
  with_tmp_dir @@ fun dir ->
  let p, q, d = (2, 4, 3) in
  let set = Enumerate.canonical_set ~p ~q ~d () in
  let path = Filename.concat dir "stream.corpus" in
  ignore (Corpus.write_list ~path ~variant:Canonical.Full ~p ~q ~d set);
  let r = Corpus.open_reader ~path in
  let got = ref [] in
  let rec drain () =
    match Corpus.read_next r with
    | Some m -> got := m :: !got; drain ()
    | None -> ()
  in
  drain ();
  Corpus.close_reader r;
  check_true "stream order" (List.for_all2 Matrix.equal set (List.rev !got))

let test_writer_rejects_unsorted () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "bad.corpus" in
  let set = Enumerate.canonical_set ~p:2 ~q:2 ~d:3 () in
  let w = Corpus.create_writer ~path ~variant:Canonical.Full ~p:2 ~q:2 ~d:3 in
  check_true "out-of-order write raises"
    (try
       List.iter (Corpus.write w) (List.rev set);
       false
     with Invalid_argument _ -> true)

(* ---------- corruption detection ---------- *)

let test_verify_detects_damage () =
  with_tmp_dir @@ fun dir ->
  let p, q, d = (2, 4, 3) in
  let path = Filename.concat dir "good.corpus" in
  let set = Enumerate.canonical_set ~p ~q ~d () in
  ignore (Corpus.write_list ~path ~variant:Canonical.Full ~p ~q ~d set);
  let good = read_file path in
  check_true "intact verifies clean"
    ((Corpus.verify ~path).Corpus.v_problems = []);
  let rewrite s =
    let oc = open_out_bin path in
    output_string oc s;
    close_out oc
  in
  (* Truncation mid-record. *)
  rewrite (String.sub good 0 (String.length good - 1));
  check_true "truncation detected"
    ((Corpus.verify ~path).Corpus.v_problems <> []);
  (* Flipped record byte -> checksum mismatch. *)
  let flipped = Bytes.of_string good in
  Bytes.set flipped (Corpus.header_bytes + 1)
    (Char.chr (Char.code (Bytes.get flipped (Corpus.header_bytes + 1)) lxor 0xff));
  rewrite (Bytes.to_string flipped);
  check_true "corruption detected"
    ((Corpus.verify ~path).Corpus.v_problems <> []);
  check_true "load refuses corrupt file"
    (try ignore (Corpus.load ~path); false with Invalid_argument _ -> true);
  (* Trailing garbage. *)
  rewrite (good ^ "x");
  check_true "trailing bytes detected"
    ((Corpus.verify ~path).Corpus.v_problems <> []);
  (* Bad magic raises even for verify. *)
  rewrite ("XXXXXXXX" ^ String.sub good 8 (String.length good - 8));
  check_true "bad magic raises"
    (try ignore (Corpus.verify ~path); false with Invalid_argument _ -> true)

let test_reader_rejects_wrong_header () =
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "short.corpus" in
  let oc = open_out_bin path in
  output_string oc "UMRSCOR";
  close_out oc;
  check_true "short header rejected"
    (try ignore (Corpus.open_reader ~path); false
     with Invalid_argument _ -> true);
  check_true "missing file raises Sys_error"
    (try ignore (Corpus.open_reader ~path:(Filename.concat dir "nope")); false
     with Sys_error _ -> true)

(* ---------- checkpoint protocol ---------- *)

let test_manifest_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let m =
    { Checkpoint.m_p = 2; m_q = 4; m_d = 3; m_variant = Canonical.Positional;
      m_total = 6561; m_checkpoint_every = 500;
      m_ranges = [| (0, 2187); (2187, 4374); (4374, 6561) |] }
  in
  check_true "no manifest yet" (not (Checkpoint.manifest_exists ~dir));
  Checkpoint.save_manifest ~dir m;
  check_true "manifest exists" (Checkpoint.manifest_exists ~dir);
  check_true "manifest roundtrip" (Checkpoint.load_manifest ~dir = m);
  Checkpoint.check_manifest m ~p:2 ~q:4 ~d:3 ~variant:Canonical.Positional
    ~total:6561;
  check_true "mismatch rejected"
    (try
       Checkpoint.check_manifest m ~p:2 ~q:4 ~d:4
         ~variant:Canonical.Positional ~total:6561;
       false
     with Invalid_argument _ -> true)

let test_shard_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let p, q, d = (2, 4, 3) in
  let ms = Enumerate.canonical_set ~p ~q ~d () in
  let s =
    { Checkpoint.s_shard = 1; s_lo = 100; s_hi = 900; s_done = 400;
      s_matrices = ms }
  in
  check_true "absent shard is None"
    (Checkpoint.load_shard ~dir ~p ~q ~d ~variant:Canonical.Full ~shard:1
     = None);
  Checkpoint.save_shard ~dir ~p ~q ~d ~variant:Canonical.Full s;
  (match Checkpoint.load_shard ~dir ~p ~q ~d ~variant:Canonical.Full ~shard:1 with
  | None -> check_true "shard reloads" false
  | Some s' ->
    check_int "lo" s.Checkpoint.s_lo s'.Checkpoint.s_lo;
    check_int "hi" s.Checkpoint.s_hi s'.Checkpoint.s_hi;
    check_int "done" s.Checkpoint.s_done s'.Checkpoint.s_done;
    check_true "matrices"
      (List.for_all2 Matrix.equal s.Checkpoint.s_matrices
         s'.Checkpoint.s_matrices));
  check_true "parameter mismatch rejected"
    (try
       ignore
         (Checkpoint.load_shard ~dir ~p ~q ~d:4 ~variant:Canonical.Full
            ~shard:1);
       false
     with Invalid_argument _ -> true);
  Checkpoint.clear ~dir;
  check_true "clear removes shard"
    (Checkpoint.load_shard ~dir ~p ~q ~d ~variant:Canonical.Full ~shard:1
     = None)

(* ---------- crash + resume ---------- *)

exception Crash

let crash_resume_identical ~domains ~variant ~p ~q ~d () =
  with_tmp_dir @@ fun dir ->
  let straight = Filename.concat dir "straight.corpus" in
  let resumed = Filename.concat dir "resumed.corpus" in
  let ckdir = Filename.concat dir "ck" in
  let h0 =
    (Builder.build ~variant ~domains ~p ~q ~d ~out:straight ()).Builder.o_header
  in
  let crashed = ref false in
  (try
     ignore
       (Builder.build ~variant ~domains ~p ~q ~d ~out:resumed
          ~checkpoint_dir:ckdir ~checkpoint_every:100
          ~on_checkpoint:(fun ~shard:_ ~done_hi:_ -> raise Crash)
          ())
   with Crash -> crashed := true);
  check_true "crash hook fired" !crashed;
  check_true "no corpus from crashed run" (not (Sys.file_exists resumed));
  check_true "manifest survives crash"
    (Checkpoint.manifest_exists ~dir:ckdir);
  (* Resume with a deliberately different domain request: the manifest's
     shard ranges must win. *)
  let o =
    Builder.build ~variant ~domains:(domains + 3) ~p ~q ~d ~out:resumed
      ~checkpoint_dir:ckdir ~resume:true ()
  in
  check_true "resume skipped work" (o.Builder.o_resumed_from > 0);
  check_int "resume kept sharding" domains o.Builder.o_shards;
  check_true "same checksum"
    (o.Builder.o_header.Corpus.checksum = h0.Corpus.checksum);
  check_true "byte-identical to uninterrupted run"
    (read_file straight = read_file resumed);
  check_true "checkpoints cleared on success"
    (not (Checkpoint.manifest_exists ~dir:ckdir))

let test_crash_resume_1_domain () =
  crash_resume_identical ~domains:1 ~variant:Canonical.Full ~p:2 ~q:4 ~d:3 ()

let test_crash_resume_3_domains () =
  crash_resume_identical ~domains:3 ~variant:Canonical.Full ~p:2 ~q:4 ~d:3 ()

let test_crash_resume_positional () =
  crash_resume_identical ~domains:2 ~variant:Canonical.Positional ~p:3 ~q:3
    ~d:2 ()

(* Power-loss matrix through the fault seam (lib/fault): instead of a
   checkpoint hook raising mid-build, simulate a power cut at *every*
   syscall-level fault point the build passes - torn tails, lost
   renames and all - and require atomic publication plus a
   byte-identical resume at each point. *)
let power_loss_matrix ~domains () =
  with_tmp_dir @@ fun dir ->
  let s =
    Umrs_chaos.Harness.crash_matrix ~domains ~checkpoint_every:1024
      ~seed:(Gen.base_seed ()) ~p:2 ~q:4 ~d:3 ~scratch:dir ()
  in
  List.iter
    (fun f ->
      Printf.eprintf "power-loss point %d (seed %d): %s\n"
        f.Umrs_chaos.Harness.f_at f.Umrs_chaos.Harness.f_seed
        f.Umrs_chaos.Harness.f_detail)
    s.Umrs_chaos.Harness.s_failures;
  check_true "every point crashed"
    (s.Umrs_chaos.Harness.s_crashes = s.Umrs_chaos.Harness.s_points);
  check_int "failures" 0 (List.length s.Umrs_chaos.Harness.s_failures)

let test_resume_demands_matching_instance () =
  with_tmp_dir @@ fun dir ->
  let ckdir = Filename.concat dir "ck" in
  let out = Filename.concat dir "x.corpus" in
  (try
     ignore
       (Builder.build ~p:2 ~q:4 ~d:3 ~out ~checkpoint_dir:ckdir
          ~checkpoint_every:300
          ~on_checkpoint:(fun ~shard:_ ~done_hi:_ -> raise Crash)
          ())
   with Crash -> ());
  check_true "resume with different d rejected"
    (try
       ignore
         (Builder.build ~p:2 ~q:4 ~d:2 ~out ~checkpoint_dir:ckdir
            ~resume:true ());
       false
     with Invalid_argument _ -> true)

(* ---------- telemetry ---------- *)

module J = Umrs_bench.Json

(* The documented schema, checked by parsing: every line is one object
   with exactly the keys ts, event and fields, and a finite ts >= 0.
   Returns the event name and its fields. *)
let parse_event_line line =
  match J.parse line with
  | Ok
      (J.Obj
        [ ("ts", J.Num ts); ("event", J.Str name); ("fields", J.Obj fields) ])
    when Float.is_finite ts && ts >= 0.0 ->
    Some (name, fields)
  | _ -> None

let valid_event_line line = parse_event_line line <> None

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_telemetry_jsonl_schema () =
  with_tmp_dir @@ fun dir ->
  let log = Filename.concat dir "events.jsonl" in
  Telemetry.with_file log (fun () ->
      let c = Telemetry.counter "widgets" in
      Telemetry.add c 41;
      Telemetry.add c 1;
      ignore (Builder.build ~p:2 ~q:2 ~d:3
                ~out:(Filename.concat dir "t.corpus")
                ~checkpoint_dir:(Filename.concat dir "ck")
                ~checkpoint_every:20 ());
      ignore (Enumerate.canonical_set ~p:2 ~q:2 ~d:2 ());
      Telemetry.emit "odd.value" [ ("x", Telemetry.Float Float.nan) ];
      check_int "span returns f's value" 42
        (Telemetry.span "timed" (fun () -> 42)));
  let ic = open_in log in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> close_in ic);
  let lines = List.rev !lines in
  check_true "events were written" (List.length lines >= 4);
  List.iter
    (fun line ->
      check_true ("schema: " ^ line) (valid_event_line line))
    lines;
  check_true "build start logged"
    (List.exists (contains ~sub:"\"event\": \"corpus.build.start\"") lines);
  check_true "checkpoints logged"
    (List.exists (contains ~sub:"\"event\": \"corpus.checkpoint\"") lines);
  check_true "build done logged"
    (List.exists (contains ~sub:"\"event\": \"corpus.build.done\"") lines);
  check_true "metrics flushed on close"
    (List.exists
       (fun l ->
         contains ~sub:"\"event\": \"metrics\"" l
         && contains ~sub:"\"widgets\": 42" l)
       lines);
  check_true "enumerate instrumented"
    (List.exists (contains ~sub:"\"event\": \"enumerate.") lines);
  let fields_of event =
    List.find_map
      (fun line ->
        match parse_event_line line with
        | Some (name, fields) when name = event -> Some fields
        | _ -> None)
      lines
  in
  check_true "nan field reads back as null"
    (fields_of "odd.value" = Some [ ("x", J.Null) ]);
  check_true "span records its seconds and ok"
    (match fields_of "timed" with
    | Some [ ("seconds", J.Num s); ("ok", J.Bool true) ] -> s >= 0.0
    | _ -> false)

let test_telemetry_flush_mid_stream () =
  with_tmp_dir @@ fun dir ->
  let log = Filename.concat dir "flush.jsonl" in
  Telemetry.open_file log;
  Telemetry.emit "first" [ ("k", Telemetry.Int 1) ];
  Telemetry.flush ();
  (* the sink is still open, yet the event is already whole on disk -
     what a server's drain path relies on before closing connections *)
  let ic = open_in log in
  let line = input_line ic in
  close_in ic;
  check_true "complete line on disk" (valid_event_line line);
  check_true "it is the event" (contains ~sub:"\"event\": \"first\"" line);
  Telemetry.close ();
  (* no sink: flush is a no-op, not an error *)
  Telemetry.flush ()

let test_telemetry_escaping () =
  with_tmp_dir @@ fun dir ->
  let log = Filename.concat dir "esc.jsonl" in
  Telemetry.with_file log (fun () ->
      Telemetry.emit "weird"
        [ ("s", Telemetry.Str "a\"b\\c\nd"); ("ok", Telemetry.Bool true) ]);
  let ic = open_in log in
  let line = input_line ic in
  close_in ic;
  check_true "quote escaped" (contains ~sub:"a\\\"b\\\\c\\nd" line);
  check_true "no raw newline inside line" (not (String.contains line '\n'))

let test_telemetry_noop_allocates_nothing () =
  Telemetry.reset_for_tests ();
  let c = Telemetry.counter "hot" in
  (* Warm up so any one-time allocation is out of the way. *)
  Telemetry.add c 1;
  if Telemetry.enabled () then Telemetry.emit "x" [ ("a", Telemetry.Int 1) ];
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Telemetry.add c 1;
    if Telemetry.enabled () then
      Telemetry.emit "hot.event" [ ("a", Telemetry.Int 1) ]
  done;
  let words = Gc.minor_words () -. before in
  (* Gc.minor_words itself boxes a float per call; allow a tiny slack
     rather than exactly zero. *)
  check_true
    (Printf.sprintf "no per-event allocation (%.0f words for 10k events)" words)
    (words < 100.0)

(* Server worker domains bump shared counters (cache hits, timeouts,
   rejections); every increment must land. Four domains start together
   behind a barrier, and each keeps adding for at least a million adds
   and at least 0.2 s: a fixed count can finish inside one scheduler
   slice before the next domain runs, a time floor makes the adds
   overlap however the machine schedules the domains. *)
let test_telemetry_counter_exact_across_domains () =
  Telemetry.reset_for_tests ();
  let c = Telemetry.counter "hammer" in
  let domains = 4 and chunk = 10_000 in
  let ready = Atomic.make 0 in
  let hammer () =
    Atomic.incr ready;
    while Atomic.get ready < domains do
      Domain.cpu_relax ()
    done;
    let t0 = Umrs_bench.Clock.now_ns () and adds = ref 0 in
    while !adds < 1_000_000 || Umrs_bench.Clock.since_s t0 < 0.2 do
      for _ = 1 to chunk do
        Telemetry.add c 1
      done;
      adds := !adds + chunk
    done;
    !adds
  in
  let total =
    List.fold_left
      (fun n d -> n + Domain.join d)
      0
      (List.init domains (fun _ -> Domain.spawn hammer))
  in
  check_int "no increment lost" total (Telemetry.counter_value c)

let test_telemetry_disabled_by_default () =
  Telemetry.reset_for_tests ();
  check_true "disabled by default" (not (Telemetry.enabled ()));
  (* emit without a sink is a harmless no-op *)
  Telemetry.emit "nobody.listening" [ ("x", Telemetry.Int 1) ];
  Telemetry.flush_metrics ();
  check_int "span still runs f" 7 (Telemetry.span "s" (fun () -> 7))

(* ---------- suite ---------- *)

let suite =
  [
    case "record roundtrip (all instances/variants)" test_record_roundtrip;
    case "record rejects bad input" test_record_rejects_bad_entry;
    case "corpus write/load roundtrip" test_corpus_roundtrip;
    case "corpus bytes independent of domains" test_corpus_byte_identity_across_domains;
    case "corpus and index bytes pinned (3,4,3)" test_corpus_golden_bytes;
    case "corpus streaming reader order" test_corpus_streaming_reader;
    case "writer enforces sort order" test_writer_rejects_unsorted;
    case "verify detects damage" test_verify_detects_damage;
    case "reader rejects wrong header" test_reader_rejects_wrong_header;
    case "checkpoint manifest roundtrip" test_manifest_roundtrip;
    case "checkpoint shard roundtrip" test_shard_roundtrip;
    case "crash+resume identical (1 domain)" test_crash_resume_1_domain;
    case "crash+resume identical (3 domains)" test_crash_resume_3_domains;
    case "crash+resume identical (positional)" test_crash_resume_positional;
    case "power-loss matrix (1 domain)" (power_loss_matrix ~domains:1);
    case "power-loss matrix (3 domains)" (power_loss_matrix ~domains:3);
    case "resume rejects instance mismatch" test_resume_demands_matching_instance;
    case "telemetry jsonl schema" test_telemetry_jsonl_schema;
    case "telemetry flush mid-stream" test_telemetry_flush_mid_stream;
    case "telemetry escapes strings" test_telemetry_escaping;
    case "telemetry no-op allocates nothing" test_telemetry_noop_allocates_nothing;
    case "telemetry counter exact across domains"
      test_telemetry_counter_exact_across_domains;
    case "telemetry disabled by default" test_telemetry_disabled_by_default;
  ]
