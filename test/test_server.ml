(* The serving layer end to end: wire codec round-trips, the Lru and
   Jobqueue building blocks, and a live server on a Unix-domain socket
   in a temp dir - remote answers checked for equality against the
   local Query/Scheme results, plus the failure contracts: deadline
   expiry is a typed timeout, a full queue answers Overloaded (never a
   hang), and SIGTERM drains accepted work before exit. *)

open Umrs_core
open Umrs_graph
open Umrs_routing
open Helpers
module Q = Umrs_store.Query
module Wire = Umrs_server.Wire
module Lru = Umrs_server.Lru
module Jobqueue = Umrs_server.Jobqueue
module Server = Umrs_server.Server
module C = Umrs_client

let with_tmp_dir f =
  let dir = Filename.temp_file "umrs_server" "" in
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

let ok_client what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (C.error_to_string e)

let ok_server what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

(* ---------- wire codec ---------- *)

let sample_matrix = Matrix.create [| [| 1; 2; 1 |]; [| 1; 1; 2 |] |]
let sample_graph = Generators.petersen ()

let sample_requests =
  [ Wire.Ping 12345; Wire.Stats; Wire.Corpus_info; Wire.Nth 7;
    Wire.Mem sample_matrix; Wire.Rank sample_matrix;
    Wire.Range_prefix [| 1; 2 |]; Wire.Range_prefix [||]; Wire.Cgraph_of 0;
    Wire.Evaluate
      { scheme = "routing-tables"; graph_name = "petersen";
        graph = sample_graph };
    Wire.Sleep_ms 250; Wire.Get_shard_map ]

let test_wire_request_roundtrip () =
  List.iteri
    (fun i req ->
      let id = 1000 + i and deadline_ms = 17 * i in
      let payload = Wire.encode_request ~id ~deadline_ms req in
      let id', dl', req' = Wire.decode_request payload in
      check_int "id" id id';
      check_int "deadline" deadline_ms dl';
      check_true (Printf.sprintf "request %d round-trips" i) (req = req'))
    sample_requests

let sample_stats =
  { Wire.st_connections = 3; st_requests = 100; st_overloaded = 2;
    st_timeouts = 1; st_rejected = 4; st_cache_hits = 9; st_cache_misses = 5;
    st_queue_depth = 7; st_queue_capacity = 64; st_workers = 2;
    st_draining = true; st_live_conns = 11; st_cache_evictions = 6;
    st_loop_wakeups = 123456; st_queue_hwm = 13 }

let sample_shard_map =
  { Wire.sm_version = 4; sm_corpus_version = 1;
    sm_variant = Umrs_core.Canonical.Full; sm_p = 2; sm_q = 3; sm_d = 3;
    sm_count = 10; sm_checksum = 0x1234_5678_9ABC_DEF0L;
    sm_shards =
      [| { Wire.sh_lo = 0; sh_hi = 4; sh_key = [| 1; 1; 1; 1; 1; 1 |];
           sh_primary = Wire.Unix_sock "/tmp/a.sock";
           sh_replicas = [ Wire.Unix_sock "/tmp/a2.sock" ] };
         { Wire.sh_lo = 4; sh_hi = 10; sh_key = [| 1; 2; 1; 1; 1; 2 |];
           sh_primary = Wire.Tcp ("shard-b.local", 7700);
           sh_replicas =
             [ Wire.Tcp ("shard-b2.local", 7700); Wire.Unix_sock "/tmp/b3" ] }
      |] }

let test_wire_outcome_roundtrip () =
  let evaluation =
    Scheme.evaluate Table_scheme.scheme ~graph_name:"petersen" sample_graph
  in
  let outcomes =
    [ Wire.Reply (Wire.R_pong 7); Wire.Reply (Wire.R_stats sample_stats);
      Wire.Reply (Wire.R_matrix sample_matrix); Wire.Reply (Wire.R_found true);
      Wire.Reply (Wire.R_found false); Wire.Reply (Wire.R_rank 42);
      Wire.Reply (Wire.R_range (3, 9));
      Wire.Reply (Wire.R_graph (Cgraph.of_matrix sample_matrix));
      Wire.Reply (Wire.R_evaluation evaluation); Wire.Reply (Wire.R_slept 250);
      Wire.Reply (Wire.R_shard_map sample_shard_map);
      Wire.Rejected "no such record"; Wire.Overloaded; Wire.Timed_out ]
  in
  List.iteri
    (fun i outcome ->
      let payload = Wire.encode_outcome ~id:i outcome in
      let id', outcome' = Wire.decode_outcome payload in
      check_int "id" i id';
      check_true (Printf.sprintf "outcome %d round-trips" i)
        (outcome = outcome'))
    outcomes

let test_wire_hello_and_frames () =
  check_true "hello accepted" (Wire.check_hello (Wire.hello ()) = Ok ());
  let bad = Wire.hello () in
  Bytes.set bad 0 'X';
  check_true "bad magic rejected" (Wire.check_hello bad = Error `Bad_magic);
  let worse = Wire.hello () in
  Bytes.set worse 8 '\xFF';
  check_true "bad version rejected"
    (match Wire.check_hello worse with Error (`Bad_version _) -> true | _ -> false);
  with_tmp_dir @@ fun dir ->
  let path = Filename.concat dir "frames.bin" in
  let payloads = [ Bytes.of_string ""; Bytes.of_string "abc" ] in
  let oc = open_out_bin path in
  List.iter (Wire.write_frame oc) payloads;
  close_out oc;
  let ic = open_in_bin path in
  List.iter
    (fun expect ->
      match Wire.read_frame ic with
      | Some got -> check_true "frame payload" (got = expect)
      | None -> Alcotest.fail "premature EOF")
    payloads;
  check_true "clean EOF is None" (Wire.read_frame ic = None);
  close_in ic;
  (* an oversized length prefix is rejected before any allocation *)
  let oc = open_out_bin path in
  output_bytes oc (Bytes.make 4 '\xFF');
  close_out oc;
  let ic = open_in_bin path in
  check_true "oversized frame is a protocol violation"
    (match Wire.read_frame ~max_bytes:1024 ic with
    | exception Invalid_argument _ -> true
    | _ -> false);
  close_in ic

let test_graph_digest_ports_matter () =
  let a = Generators.cycle 5 in
  let b = Generators.cycle 6 in
  check_true "same graph, same digest"
    (Wire.graph_digest a = Wire.graph_digest (Generators.cycle 5));
  check_true "different graphs, different digests"
    (Wire.graph_digest a <> Wire.graph_digest b);
  check_true "cache key is the full encoding, equal iff graphs equal"
    (Wire.graph_key a = Wire.graph_key (Generators.cycle 5)
    && Wire.graph_key a <> Wire.graph_key b)

let test_wire_huge_graph_order_rejected () =
  (* an Evaluate frame claiming 2^32-1 vertices while carrying almost
     no payload must be refused before the decoder allocates the
     adjacency array - one malformed frame must not OOM the server *)
  let buf = Umrs_bitcode.Bitbuf.create () in
  let u width x = Umrs_bitcode.Bitbuf.add_bits buf x ~width in
  u 32 1;            (* request id *)
  u 32 0;            (* deadline *)
  u 8 8;             (* opcode: evaluate *)
  u 32 0;            (* scheme: empty string *)
  u 32 0;            (* graph name: empty string *)
  u 32 0xFFFFFFFF;   (* claimed graph order *)
  u 16 0;            (* a single zero-degree row *)
  check_true "impossible graph order is a protocol violation"
    (match Wire.decode_request (Umrs_bitcode.Bitbuf.to_bytes buf) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- wire byte image ---------- *)

(* MD5 of one payload per request and response constructor, plus the
   three bodiless outcomes. Two processes talk through these bytes, so
   they are pinned independently of how Bitbuf moves its bits. [Join],
   [R_stats], [R_status] and [R_evaluation] carry a 1-bit bool, so
   every field after it starts off a byte boundary. [R_evaluation] was
   re-recorded at protocol v6, when it took Stretch_dist.summary. *)

let golden_addr_a = Wire.Unix_sock "/tmp/node-a.sock"
let golden_addr_b = Wire.Tcp ("node-b.local", 7701)

let golden_requests =
  [ ("ping", Wire.Ping 12345, "63bbb65e61fd4fe63e19f67275d15811");
    ("stats", Wire.Stats, "047e185ec7e5f273766a2dd1f74f7032");
    ("corpus_info", Wire.Corpus_info, "8c354408e623964e9ac53769dd198f89");
    ("nth", Wire.Nth 7, "06dc61979c1c478086050715610048a1");
    ("mem", Wire.Mem sample_matrix, "1d6c422cfa9e87ddfc144f221bd6109e");
    ("rank", Wire.Rank sample_matrix, "032943ebba00558b9a2a011212c58331");
    ("range_prefix", Wire.Range_prefix [| 1; 2 |],
     "f9f614d4dd2065ad7c333ae4af7e2faf");
    ("cgraph_of", Wire.Cgraph_of 3, "d2881741142d2ab79d31798f9393e784");
    ("evaluate",
     Wire.Evaluate
       { scheme = "routing-tables"; graph_name = "petersen";
         graph = sample_graph }, "be34872b5fb4844b619581c723509e83");
    ("sleep_ms", Wire.Sleep_ms 250, "218b77c66021f845c4fcdf31d2db477f");
    ("get_shard_map", Wire.Get_shard_map, "7047625657bc49be89664494b6dca0ee");
    ("join",
     Wire.Join { jn_addr = golden_addr_a; jn_ready = true;
                 jn_checksum = 0x0123_4567_89AB_CDEFL },
     "8edcdcc7119d56557696d52defc82c94");
    ("leave", Wire.Leave golden_addr_b, "61badcb3a6f33626b22f754eee9d0130");
    ("heartbeat",
     Wire.Heartbeat { hb_addr = golden_addr_b; hb_version = 9;
                      hb_checksum = 0x7EDC_BA98_7654_3210L },
     "8c38584c31ffd6b8ac37b4217d6f5c58");
    ("reshard_split", Wire.Reshard (Wire.Split 1),
     "b69ed4889b11b6127f78c408a257c439");
    ("reshard_merge", Wire.Reshard (Wire.Merge 0),
     "c8f814f96e4e8fc10ee16f2dfaaab019");
    ("handoff_done",
     Wire.Handoff_done
       { hd_addr = golden_addr_a; hd_lo = 4; hd_hi = 10;
         hd_key = [| 1; 2; 1; 1; 1; 2 |]; hd_checksum = 42L },
     "10583a26f63de36d9d8ed4745542765c");
    ("cluster_status", Wire.Cluster_status,
     "c836b70aaaad07d31d485f6a4669cf06") ]

let golden_outcomes () =
  let header =
    { Umrs_store.Corpus.version = 1; variant = Canonical.Positional; p = 3;
      q = 4; d = 3; count = 58; checksum = 0x0F1E_2D3C_4B5A_6978L }
  in
  let member i state =
    { Wire.mi_addr = (if i = 0 then golden_addr_a else golden_addr_b);
      mi_shard = i; mi_state = state; mi_in_map = i = 0;
      mi_primary = true; mi_checksum = Int64.of_int (1000 + i);
      mi_beat_age = 0.25 *. float_of_int (i + 1) }
  in
  let acquire =
    Wire.Cmd_acquire { aq_lo = 4; aq_hi = 10; aq_donor = golden_addr_a;
                       aq_map = Some sample_shard_map }
  in
  [ ("pong", Wire.Reply (Wire.R_pong 7), "6fef6f5f32618b91c3d5f0735017b66d");
    ("stats", Wire.Reply (Wire.R_stats sample_stats),
     "d3387f6c95ed74641d536d5ddcd8ba2b");
    ("header", Wire.Reply (Wire.R_header header),
     "522b2785e16d389da922494fdb671085");
    ("matrix", Wire.Reply (Wire.R_matrix sample_matrix),
     "3f11f9af48fa3713f289fbf71f617bfe");
    ("found", Wire.Reply (Wire.R_found true),
     "88833dad0b66f46d13f7c075ead5502f");
    ("rank", Wire.Reply (Wire.R_rank 42), "79b565410ed2136db658c78d9cb7806e");
    ("range", Wire.Reply (Wire.R_range (3, 9)),
     "04b77b7913befeb91111b7e02c2b592f");
    ("slice",
     Wire.Reply (Wire.R_slice { sl_version = 5; sl_lo = 2; sl_hi = 8 }),
     "7eb9d2926bf0ed267b237d3615f821c4");
    ("graph", Wire.Reply (Wire.R_graph (Cgraph.of_matrix sample_matrix)),
     "57877d0968551138ec920d118c1f9373");
    ("evaluation",
     Wire.Reply
       (Wire.R_evaluation
          (Scheme.evaluate Table_scheme.scheme ~graph_name:"petersen"
             sample_graph)), "4753734c47c83c59173214de0c540a24");
    ("slept", Wire.Reply (Wire.R_slept 250),
     "a5f4ad7f8f7bc6db15ad1622ee791d79");
    ("shard_map", Wire.Reply (Wire.R_shard_map sample_shard_map),
     "570c4e48d9b742661475fdafc4c18d32");
    ("joined",
     Wire.Reply
       (Wire.R_joined
          { jr_shard = 1; jr_lo = 4; jr_hi = 10; jr_donor = golden_addr_b;
            jr_checksum = 77L; jr_version = 6; jr_map = None }),
     "182e2f9d79d43a89c5d4e1fbd18ea702");
    ("heartbeat",
     Wire.Reply
       (Wire.R_heartbeat
          { rh_version = 8; rh_known = true; rh_cmd = Some acquire }),
     "191749fe15ef5e17c2ee91dc30cbd026");
    ("status",
     Wire.Reply
       (Wire.R_status
          { cs_version = 3; cs_published = true;
            cs_members = [ member 0 Wire.Ready; member 1 Wire.Joining;
                           member 2 Wire.Dead ] }),
     "13646b720cdd5c1434a0a488009c6d52");
    ("accepted", Wire.Reply (Wire.R_accepted "reshard started"),
     "9a1f65bed9b1ec253b999b385e168561");
    ("rejected", Wire.Rejected "no such record",
     "d4932277185bd9d05aa3d361f131a033");
    ("overloaded", Wire.Overloaded, "c61207b6d9acafddf9e67f037ee31cae");
    ("timed_out", Wire.Timed_out, "580e81b6dfcd57f56384020873811321") ]

let md5_hex b = Digest.to_hex (Digest.bytes b)

let test_wire_golden_bytes () =
  List.iteri
    (fun i (name, req, expected) ->
      let payload = Wire.encode_request ~id:(100 + i) ~deadline_ms:(9 * i) req in
      Alcotest.(check string) ("request " ^ name) expected (md5_hex payload))
    golden_requests;
  List.iteri
    (fun i (name, outcome, expected) ->
      let payload = Wire.encode_outcome ~id:(200 + i) outcome in
      Alcotest.(check string) ("outcome " ^ name) expected (md5_hex payload))
    (golden_outcomes ())

(* ---------- lru ---------- *)

let test_lru () =
  check_true "capacity < 1 rejected"
    (match Lru.create ~capacity:0 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  let c = Lru.create ~capacity:3 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  Lru.add c "c" 3;
  check_int "full" 3 (Lru.length c);
  (* touching "a" makes "b" the eviction victim *)
  check_true "find promotes" (Lru.find c "a" = Some 1);
  Lru.add c "d" 4;
  check_true "lru evicted" (Lru.find c "b" = None);
  check_true "promoted survives" (Lru.find c "a" = Some 1);
  check_true "mru order" (Lru.to_list c = [ ("a", 1); ("d", 4); ("c", 3) ]);
  (* overwrite refreshes, never evicts *)
  Lru.add c "c" 33;
  check_int "no growth on overwrite" 3 (Lru.length c);
  check_true "overwritten" (Lru.find c "c" = Some 33);
  check_true "mem does not promote" (Lru.mem c "d");
  Lru.clear c;
  check_int "cleared" 0 (Lru.length c);
  check_true "empty list" (Lru.to_list c = [])

let test_lru_single_slot () =
  let c = Lru.create ~capacity:1 in
  Lru.add c 1 "one";
  Lru.add c 2 "two";
  check_true "only newest" (Lru.find c 1 = None && Lru.find c 2 = Some "two")

(* ---------- jobqueue ---------- *)

let test_jobqueue_bounded () =
  let q = Jobqueue.create ~capacity:2 in
  check_true "push 1" (Jobqueue.try_push q 1);
  check_true "push 2" (Jobqueue.try_push q 2);
  check_true "full" (not (Jobqueue.try_push q 3));
  check_int "length" 2 (Jobqueue.length q);
  check_true "pop fifo" (Jobqueue.pop q = Some 1);
  check_true "space again" (Jobqueue.try_push q 4);
  Jobqueue.close q;
  check_true "closed refuses" (not (Jobqueue.try_push q 5));
  (* accepted jobs still drain after close, in order *)
  check_true "drain 2" (Jobqueue.pop q = Some 2);
  check_true "drain 4" (Jobqueue.pop q = Some 4);
  check_true "then None" (Jobqueue.pop q = None);
  Jobqueue.close q;
  check_true "close idempotent" (Jobqueue.pop q = None)

let test_jobqueue_unblocks_consumers () =
  let q = Jobqueue.create ~capacity:4 in
  let popped = Atomic.make (-1) in
  let consumer =
    Thread.create (fun () ->
        match Jobqueue.pop q with
        | Some v -> Atomic.set popped v
        | None -> Atomic.set popped (-2)) ()
  in
  Thread.yield ();
  check_true "push wakes consumer" (Jobqueue.try_push q 7);
  Thread.join consumer;
  check_int "consumer got the job" 7 (Atomic.get popped);
  (* close wakes a blocked pop with None *)
  let consumer2 =
    Thread.create (fun () ->
        match Jobqueue.pop q with
        | Some _ -> ()
        | None -> Atomic.set popped (-3)) ()
  in
  Thread.yield ();
  Jobqueue.close q;
  Thread.join consumer2;
  check_int "close unblocked pop" (-3) (Atomic.get popped)

(* ---------- end-to-end fixtures ---------- *)

let build_corpus dir =
  let corpus = Filename.concat dir "ref.corpus" in
  ignore (Umrs_store.Builder.build ~p:2 ~q:3 ~d:3 ~out:corpus ());
  (match Q.build ~corpus () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "index build: %s" (Q.error_to_string e));
  corpus

let with_server ?(workers = 2) ?(queue = 32) ?corpus dir f =
  let addr = Wire.Unix_sock (Filename.concat dir "srv.sock") in
  let cfg =
    { (Server.default_config addr) with
      Server.workers; queue_capacity = queue; cache_capacity = 8; corpus }
  in
  let srv = ok_server "start" (Server.start cfg) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown srv;
      Server.wait srv)
    (fun () -> f addr srv)

let with_client addr f =
  let c = ok_client "connect" (C.connect ~retries:5 addr) in
  Fun.protect ~finally:(fun () -> C.close c) (fun () -> f c)

(* ---------- end-to-end: every request type, remote = local ---------- *)

let test_e2e_remote_equals_local () =
  with_tmp_dir @@ fun dir ->
  let corpus = build_corpus dir in
  let local = ok_client "local open" (
    match Q.open_ ~corpus () with
    | Ok t -> Ok t
    | Error e -> Error (C.Io (Q.error_to_string e)))
  in
  Fun.protect ~finally:(fun () -> Q.close local) @@ fun () ->
  with_server ~corpus dir @@ fun addr _srv ->
  with_client addr @@ fun c ->
  ok_client "ping" (C.ping c);
  let h = ok_client "info" (C.corpus_info c) in
  check_true "remote header = local header" (h = Q.header local);
  let n = h.Umrs_store.Corpus.count in
  check_true "corpus non-trivial" (n >= 3);
  for i = 0 to n - 1 do
    let m = ok_client "nth" (C.nth c i) in
    check_true "nth equal" (Matrix.equal m (Q.nth local i));
    check_true "mem of stored record" (ok_client "mem" (C.mem c m));
    check_int "rank agrees" (Q.rank local m) (ok_client "rank" (C.rank c m));
    check_true "cgraph equal" (ok_client "cgraph" (C.cgraph c i) = Q.cgraph local i)
  done;
  let probe = Matrix.create_relaxed [| [| 3; 3; 3 |]; [| 3; 3; 3 |] |] in
  check_true "mem of absent matrix"
    (ok_client "mem" (C.mem c probe) = Q.mem local probe);
  List.iter
    (fun prefix ->
      check_true "range_prefix equal"
        (ok_client "range" (C.range_prefix c prefix)
        = Q.range_prefix local prefix))
    [ [||]; [| 1 |]; [| 1; 2 |]; [| 2 |] ];
  (* remote evaluation = local evaluation, field for field *)
  let g = Generators.petersen () in
  let remote =
    ok_client "evaluate"
      (C.evaluate c ~scheme:"routing-tables" ~graph_name:"petersen" g)
  in
  let local_eval = Scheme.evaluate Table_scheme.scheme ~graph_name:"petersen" g in
  check_true "evaluation equal" (remote = local_eval);
  check_int "sleep echoes" 5 (ok_client "sleep" (C.sleep_ms c 5));
  let s = ok_client "stats" (C.stats c) in
  check_true "requests counted" (s.Wire.st_requests > 0);
  check_true "not draining" (not s.Wire.st_draining)

let test_e2e_rejections () =
  with_tmp_dir @@ fun dir ->
  let corpus = build_corpus dir in
  with_server ~corpus dir @@ fun addr _srv ->
  with_client addr @@ fun c ->
  let refused what = function
    | Error (C.Refused _) -> ()
    | Ok _ -> Alcotest.failf "%s: expected Refused, got a reply" what
    | Error e ->
      Alcotest.failf "%s: expected Refused, got %s" what (C.error_to_string e)
  in
  refused "nth out of range" (C.nth c 99999);
  refused "wrong shape" (C.mem c (Matrix.create [| [| 1 |] |]));
  refused "unknown scheme"
    (C.evaluate c ~scheme:"no-such-scheme" ~graph_name:"x"
       (Generators.path 3));
  (* a negative sleep cannot even be encoded; the server-side guard is
     the cap on how long a worker may be held *)
  refused "sleep above the cap" (C.sleep_ms c 3_600_000);
  (* the connection survives every rejection *)
  ok_client "ping after rejections" (C.ping c)

let test_e2e_no_corpus_is_refused () =
  with_tmp_dir @@ fun dir ->
  with_server dir @@ fun addr _srv ->
  with_client addr @@ fun c ->
  (match C.nth c 0 with
  | Error (C.Refused _) -> ()
  | _ -> Alcotest.fail "corpus query without a corpus must be Refused");
  ok_client "ping still fine" (C.ping c)

let test_e2e_pipelining_out_of_order () =
  with_tmp_dir @@ fun dir ->
  let corpus = build_corpus dir in
  with_server ~workers:2 ~corpus dir @@ fun addr _srv ->
  with_client addr @@ fun c ->
  (* the slow request is sent first; with two workers the fast one
     finishes first, so its response arrives ahead of ticket order *)
  let slow = ok_client "send slow" (C.send c (Wire.Sleep_ms 150)) in
  let fast = ok_client "send fast" (C.send c (Wire.Nth 0)) in
  let t0 = Unix.gettimeofday () in
  (match ok_client "recv fast" (C.recv c fast) with
  | Wire.R_matrix _ -> ()
  | _ -> Alcotest.fail "fast response has the wrong shape");
  check_true "fast did not wait for slow" (Unix.gettimeofday () -. t0 < 0.125);
  match ok_client "recv slow" (C.recv c slow) with
  | Wire.R_slept 150 -> ()
  | _ -> Alcotest.fail "slow response has the wrong shape"

(* ---------- failure contracts ---------- *)

let test_deadline_expiry_is_typed_timeout () =
  with_tmp_dir @@ fun dir ->
  let corpus = build_corpus dir in
  with_server ~workers:1 ~corpus dir @@ fun addr _srv ->
  with_client addr @@ fun c ->
  (* one worker, held by the sleep: the deadlined request expires while
     queued and must come back Timed_out, not late *)
  let blocker = ok_client "send blocker" (C.send c (Wire.Sleep_ms 250)) in
  let doomed =
    ok_client "send doomed" (C.send c ~deadline_ms:50 (Wire.Nth 0))
  in
  (match C.recv c doomed with
  | Error C.Timed_out -> ()
  | Ok _ -> Alcotest.fail "expired request got a reply"
  | Error e -> Alcotest.failf "expected Timed_out, got %s" (C.error_to_string e));
  (match ok_client "recv blocker" (C.recv c blocker) with
  | Wire.R_slept 250 -> ()
  | _ -> Alcotest.fail "blocker response has the wrong shape");
  let s = ok_client "stats" (C.stats c) in
  check_true "timeout counted" (s.Wire.st_timeouts >= 1)

let test_queue_overflow_is_overloaded_not_a_hang () =
  with_tmp_dir @@ fun dir ->
  let corpus = build_corpus dir in
  with_server ~workers:1 ~queue:1 ~corpus dir @@ fun addr _srv ->
  with_client addr @@ fun c ->
  (* occupy the single worker, give it time to pop the job... *)
  let blocker = ok_client "send blocker" (C.send c (Wire.Sleep_ms 400)) in
  Unix.sleepf 0.1;
  (* ...then fill the 1-slot queue and overflow it *)
  let queued = ok_client "send queued" (C.send c (Wire.Sleep_ms 1)) in
  let shed1 = ok_client "send shed1" (C.send c (Wire.Nth 0)) in
  let shed2 = ok_client "send shed2" (C.send c (Wire.Nth 1)) in
  let overloaded t =
    match C.recv c t with
    | Error C.Overloaded -> true
    | Ok _ -> false
    | Error e -> Alcotest.failf "unexpected %s" (C.error_to_string e)
  in
  check_true "overflow shed" (overloaded shed1 && overloaded shed2);
  (* control plane still answers while the pool is saturated *)
  let s = ok_client "stats under load" (C.stats c) in
  check_true "overloads counted" (s.Wire.st_overloaded >= 2);
  (* and every accepted request still completes - nothing hangs *)
  (match ok_client "recv blocker" (C.recv c blocker) with
  | Wire.R_slept 400 -> ()
  | _ -> Alcotest.fail "blocker wrong shape");
  match ok_client "recv queued" (C.recv c queued) with
  | Wire.R_slept 1 -> ()
  | _ -> Alcotest.fail "queued wrong shape"

let test_sigterm_drains_in_flight () =
  with_tmp_dir @@ fun dir ->
  let sock = Filename.concat dir "sig.sock" in
  let cfg =
    { (Server.default_config (Wire.Unix_sock sock)) with Server.workers = 1 }
  in
  let srv = ok_server "start" (Server.start cfg) in
  let prev_term = Sys.signal Sys.sigterm Sys.Signal_default in
  let prev_int = Sys.signal Sys.sigint Sys.Signal_default in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigterm prev_term;
      Sys.set_signal Sys.sigint prev_int)
    (fun () ->
      Server.install_signal_handlers srv;
      with_client (Wire.Unix_sock sock) @@ fun c ->
      let inflight = ok_client "send" (C.send c (Wire.Sleep_ms 200)) in
      Unix.sleepf 0.05;
      (* the worker holds the job; SIGTERM must drain it, not drop it *)
      Unix.kill (Unix.getpid ()) Sys.sigterm;
      (match ok_client "recv across drain" (C.recv c inflight) with
      | Wire.R_slept 200 -> ()
      | _ -> Alcotest.fail "in-flight response has the wrong shape");
      Server.wait srv;
      check_true "socket removed after drain" (not (Sys.file_exists sock));
      check_true "new connections refused after drain"
        (match C.connect (Wire.Unix_sock sock) with
        | Error (C.Io _) -> true
        | Ok c2 ->
          C.close c2;
          false
        | Error _ -> true))

let test_requests_during_drain_are_overloaded () =
  with_tmp_dir @@ fun dir ->
  let corpus = build_corpus dir in
  with_server ~workers:1 ~corpus dir @@ fun addr srv ->
  with_client addr @@ fun c ->
  let blocker = ok_client "send blocker" (C.send c (Wire.Sleep_ms 150)) in
  Unix.sleepf 0.05;
  Server.shutdown srv;
  (* admission is closed: a new data-plane request is shed, while the
     accepted one still completes *)
  (match C.call c (Wire.Nth 0) with
  | Error C.Overloaded -> ()
  | Ok _ -> Alcotest.fail "request after shutdown got a reply"
  | Error e -> Alcotest.failf "expected Overloaded, got %s" (C.error_to_string e));
  match ok_client "recv blocker" (C.recv c blocker) with
  | Wire.R_slept 150 -> ()
  | _ -> Alcotest.fail "blocker wrong shape"

let test_evaluation_cache_hits () =
  with_tmp_dir @@ fun dir ->
  with_server dir @@ fun addr _srv ->
  with_client addr @@ fun c ->
  let g = Generators.cycle 6 in
  let e1 =
    ok_client "evaluate 1"
      (C.evaluate c ~scheme:"routing-tables" ~graph_name:"c6" g)
  in
  let e2 =
    ok_client "evaluate 2"
      (C.evaluate c ~scheme:"routing-tables" ~graph_name:"c6" g)
  in
  check_true "cached result identical" (e1 = e2);
  let s = ok_client "stats" (C.stats c) in
  check_true "a miss then a hit"
    (s.Wire.st_cache_misses >= 1 && s.Wire.st_cache_hits >= 1);
  (* a different graph name is a different key even for the same graph *)
  let hits_before = s.Wire.st_cache_hits in
  ignore
    (ok_client "evaluate 3"
       (C.evaluate c ~scheme:"routing-tables" ~graph_name:"other" g));
  let s' = ok_client "stats" (C.stats c) in
  check_int "renamed graph misses" hits_before s'.Wire.st_cache_hits

let test_unix_socket_path_safety () =
  with_tmp_dir @@ fun dir ->
  (* a regular file at the socket path is refused, never deleted *)
  let precious = Filename.concat dir "precious.txt" in
  let oc = open_out precious in
  output_string oc "do not delete";
  close_out oc;
  (match Server.start (Server.default_config (Wire.Unix_sock precious)) with
  | Error _ -> ()
  | Ok srv ->
    Server.shutdown srv;
    Server.wait srv;
    Alcotest.fail "bound over a regular file");
  check_true "regular file survived" (Sys.file_exists precious);
  (* a live server's socket is address-in-use, not a silent takeover *)
  let sock = Filename.concat dir "live.sock" in
  let srv =
    ok_server "start" (Server.start (Server.default_config (Wire.Unix_sock sock)))
  in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown srv;
      Server.wait srv)
    (fun () ->
      (match Server.start (Server.default_config (Wire.Unix_sock sock)) with
      | Error _ -> ()
      | Ok srv2 ->
        Server.shutdown srv2;
        Server.wait srv2;
        Alcotest.fail "second server stole a live socket");
      (* the first server kept serving throughout *)
      with_client (Wire.Unix_sock sock) @@ fun c ->
      ok_client "ping survivor" (C.ping c));
  (* a stale socket left by a dead server is cleaned up and reused *)
  let stale = Filename.concat dir "stale.sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX stale);
  Unix.close fd;
  check_true "stale path exists" (Sys.file_exists stale);
  let srv3 =
    ok_server "start over stale socket"
      (Server.start (Server.default_config (Wire.Unix_sock stale)))
  in
  Server.shutdown srv3;
  Server.wait srv3

let test_connection_cap_sheds_excess () =
  with_tmp_dir @@ fun dir ->
  let addr = Wire.Unix_sock (Filename.concat dir "cap.sock") in
  let cfg = { (Server.default_config addr) with Server.max_conns = 1 } in
  let srv = ok_server "start" (Server.start cfg) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown srv;
      Server.wait srv)
    (fun () ->
      (with_client addr @@ fun c ->
       ok_client "first connection serves" (C.ping c);
       (* at the cap, the next connection is closed at accept - the
          client sees an immediate I/O failure, not a hang *)
       match C.connect addr with
       | Error (C.Io _) -> ()
       | Ok c2 ->
         C.close c2;
         Alcotest.fail "connection above the cap was accepted"
       | Error e ->
         Alcotest.failf "expected Io, got %s" (C.error_to_string e));
      (* closing the first connection frees its slot *)
      with_client addr @@ fun c -> ok_client "slot released" (C.ping c))

let test_bad_config_is_error () =
  with_tmp_dir @@ fun dir ->
  let addr = Wire.Unix_sock (Filename.concat dir "x.sock") in
  let bad cfg =
    match Server.start cfg with
    | Error _ -> true
    | Ok srv ->
      Server.shutdown srv;
      Server.wait srv;
      false
  in
  check_true "workers < 1"
    (bad { (Server.default_config addr) with Server.workers = 0 });
  check_true "queue < 1"
    (bad { (Server.default_config addr) with Server.queue_capacity = 0 });
  check_true "max_conns < 1"
    (bad { (Server.default_config addr) with Server.max_conns = 0 });
  check_true "missing corpus"
    (bad
       { (Server.default_config addr) with
         Server.corpus = Some (Filename.concat dir "absent.corpus") })

(* ---------- event loop unit coverage ---------- *)

module Evloop = Umrs_server.Evloop

let evloop_backends () =
  if Evloop.epoll_available () then [ Evloop.Epoll; Evloop.Select ]
  else [ Evloop.Select ]

let test_evloop_readiness_and_wakeup () =
  List.iter
    (fun backend ->
      let name =
        match backend with Evloop.Epoll -> "epoll" | Evloop.Select -> "select"
      in
      let loop = Evloop.create ~backend () in
      Fun.protect ~finally:(fun () -> Evloop.close loop) @@ fun () ->
      let r, w = Unix.pipe ~cloexec:true () in
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close r with Unix.Unix_error _ -> ());
          try Unix.close w with Unix.Unix_error _ -> ())
      @@ fun () ->
      Evloop.add loop r ~readable:true ~writable:false;
      check_int (name ^ ": one fd registered") 1 (Evloop.fd_count loop);
      let events = ref [] in
      let handler fd ~readable ~writable ~hup =
        events := (Evloop.int_of_fd fd, readable, writable, hup) :: !events
      in
      (* idle pipe: the wait times out with nothing delivered *)
      check_int (name ^ ": no spurious events") 0
        (Evloop.wait loop ~timeout_ms:10 ~handler);
      (* a byte arrives: the read end reports readable *)
      ignore (Unix.write w (Bytes.of_string "x") 0 1);
      check_true (name ^ ": readable delivered")
        (Evloop.wait loop ~timeout_ms:1000 ~handler > 0);
      (match !events with
      | [ (fd, true, _, _) ] -> check_int (name ^ ": right fd") (Evloop.int_of_fd r) fd
      | _ -> Alcotest.failf "%s: expected one readable event" name);
      (* a wakeup from another thread interrupts a long wait promptly
         and is never surfaced as an event *)
      let t0 = Unix.gettimeofday () in
      let waker =
        Thread.create
          (fun () ->
            Thread.delay 0.05;
            Evloop.wakeup loop)
          ()
      in
      ignore (Unix.read r (Bytes.create 8) 0 8);
      events := [];
      check_int (name ^ ": wakeup is internal") 0
        (Evloop.wait loop ~timeout_ms:5000 ~handler);
      Thread.join waker;
      check_true (name ^ ": wakeup cut the wait short")
        (Unix.gettimeofday () -. t0 < 2.0);
      (* modify to watch the write end for writability *)
      Evloop.remove loop r;
      Evloop.add loop w ~readable:false ~writable:true;
      events := [];
      check_true (name ^ ": writable delivered")
        (Evloop.wait loop ~timeout_ms:1000 ~handler > 0);
      (match !events with
      | (fd, _, true, _) :: _ -> check_int (name ^ ": write end") (Evloop.int_of_fd w) fd
      | _ -> Alcotest.failf "%s: expected a writable event" name);
      Evloop.remove loop w;
      check_int (name ^ ": interest empty") 0 (Evloop.fd_count loop);
      check_int (name ^ ": removed fd is silent") 0
        (Evloop.wait loop ~timeout_ms:10 ~handler))
    (evloop_backends ())

let test_evloop_poll1 () =
  let r, w = Unix.pipe ~cloexec:true () in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close r with Unix.Unix_error _ -> ());
      try Unix.close w with Unix.Unix_error _ -> ())
  @@ fun () ->
  let readable ~timeout_ms =
    Evloop.poll1 r ~readable:true ~writable:false ~timeout_ms land 1 <> 0
  in
  check_true "empty pipe is not readable" (not (readable ~timeout_ms:10));
  check_true "open pipe is writable" (Evloop.wait_writable w ~timeout_ms:1000);
  ignore (Unix.write w (Bytes.of_string "y") 0 1);
  check_true "byte makes it readable" (readable ~timeout_ms:1000)

(* ---------- slowloris and handshake reaping ---------- *)

let sock_path_of = function
  | Wire.Unix_sock p -> p
  | addr -> Alcotest.failf "expected a unix socket, got %s" (Wire.addr_to_string addr)

let read_exactly fd buf off len =
  let rec go off len =
    if len > 0 then
      match Unix.read fd buf off len with
      | 0 -> Alcotest.fail "peer closed mid-read"
      | n -> go (off + n) (len - n)
  in
  go off len

(* Raw protocol client: connect, swap hellos, hand back the naked fd. *)
let raw_connect path =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e -> (try Unix.close fd with Unix.Unix_error _ -> ()); raise e);
  let hello = Wire.hello () in
  let n = Unix.write fd hello 0 (Bytes.length hello) in
  check_int "hello sent whole" (Bytes.length hello) n;
  let reply = Bytes.create Wire.hello_bytes in
  read_exactly fd reply 0 Wire.hello_bytes;
  (match Wire.check_hello reply with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "bad hello from server");
  fd

let frame_of payload =
  let n = Bytes.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_le b 0 (Int32.of_int n);
  Bytes.blit payload 0 b 4 n;
  b

let read_reply fd =
  let hdr = Bytes.create 4 in
  read_exactly fd hdr 0 4;
  let len = Int32.to_int (Bytes.get_int32_le hdr 0) in
  let payload = Bytes.create len in
  read_exactly fd payload 0 len;
  Wire.decode_outcome payload

let test_slowloris_partial_frame () =
  with_tmp_dir @@ fun dir ->
  with_server dir @@ fun addr _srv ->
  let fd = raw_connect (sock_path_of addr) in
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  let frame = frame_of (Wire.encode_request ~id:7 ~deadline_ms:0 (Wire.Ping 99)) in
  (* drip the frame one byte at a time across several poller sweeps; a
     connection past its handshake is entitled to be slow *)
  for i = 0 to Bytes.length frame - 1 do
    check_int "dripped byte" 1 (Unix.write fd frame i 1);
    if i land 3 = 0 then Unix.sleepf 0.03
  done;
  (* the dribbler never blocked anyone else *)
  with_client addr (fun c -> ok_client "concurrent client" (C.ping c));
  match read_reply fd with
  | 7, Wire.Reply (Wire.R_pong 99) -> ()
  | _ -> Alcotest.fail "dripped ping got the wrong reply"

let test_handshake_timeout_reaps_silent_conns () =
  with_tmp_dir @@ fun dir ->
  let addr = Wire.Unix_sock (Filename.concat dir "hs.sock") in
  let cfg =
    { (Server.default_config addr) with Server.handshake_timeout = 0.3 }
  in
  let srv = ok_server "start" (Server.start cfg) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown srv;
      Server.wait srv)
    (fun () ->
      let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX (sock_path_of addr));
          (* send nothing: the server must close us, not hold the fd
             forever *)
          let t0 = Unix.gettimeofday () in
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
          (match Unix.read fd (Bytes.create 1) 0 1 with
          | 0 -> ()
          | _ -> Alcotest.fail "server spoke to a silent connection"
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
            ->
            Alcotest.fail "silent connection was never reaped");
          check_true "reaped near the deadline, not eventually"
            (Unix.gettimeofday () -. t0 < 3.0)))

(* ---------- write backpressure ---------- *)

let test_write_backpressure_tiny_hwm () =
  with_tmp_dir @@ fun dir ->
  let corpus = build_corpus dir in
  let addr = Wire.Unix_sock (Filename.concat dir "bp.sock") in
  (* a 512-byte high-water mark forces pause/resume cycling while a
     pipelined burst's replies drain *)
  let cfg =
    { (Server.default_config addr) with
      Server.corpus = Some corpus; workers = 2; queue_capacity = 512;
      wbuf_hwm = 512 }
  in
  let srv = ok_server "start" (Server.start cfg) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown srv;
      Server.wait srv)
    (fun () ->
      with_client addr @@ fun c ->
      let total = 300 in
      let reqs = List.init total (fun i -> Wire.Nth (i mod 3)) in
      let rs = C.call_pipelined c reqs in
      check_int "every reply arrived" total (List.length rs);
      List.iter
        (fun r ->
          match ok_client "burst reply" r with
          | Wire.R_matrix _ -> ()
          | _ -> Alcotest.fail "burst reply has the wrong shape")
        rs)

(* ---------- beyond FD_SETSIZE ---------- *)

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let test_thousand_plus_connections () =
  ignore (Evloop.raise_nofile 8192);
  with_tmp_dir @@ fun dir ->
  let addr = Wire.Unix_sock (Filename.concat dir "big.sock") in
  let cfg = { (Server.default_config addr) with Server.max_conns = 4096 } in
  let srv = ok_server "start" (Server.start cfg) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown srv;
      Server.wait srv)
    (fun () ->
      let path = sock_path_of addr in
      let want = 1100 in
      let fds = Array.init want (fun _ -> raw_connect path) in
      Fun.protect ~finally:(fun () -> Array.iter close_quietly fds)
      @@ fun () ->
      (* the whole point: descriptors past select's universe still work *)
      check_true "descriptor numbers exceeded FD_SETSIZE"
        (Evloop.int_of_fd fds.(want - 1) > 1024);
      List.iter
        (fun i ->
          let frame =
            frame_of (Wire.encode_request ~id:i ~deadline_ms:0 (Wire.Ping i))
          in
          ignore (Unix.write fds.(i) frame 0 (Bytes.length frame));
          match read_reply fds.(i) with
          | id, Wire.Reply (Wire.R_pong n) when id = i && n = i -> ()
          | _ -> Alcotest.failf "conn %d: bad ping reply" i)
        [ 0; 1023; 1024; want - 1 ];
      with_client addr @@ fun c ->
      let s = ok_client "stats" (C.stats c) in
      check_true "live connections visible in stats"
        (s.Wire.st_live_conns > want - 10))

let test_connection_cap_at_scale () =
  ignore (Evloop.raise_nofile 8192);
  with_tmp_dir @@ fun dir ->
  let addr = Wire.Unix_sock (Filename.concat dir "cap2.sock") in
  let cap = 64 in
  let cfg = { (Server.default_config addr) with Server.max_conns = cap } in
  let srv = ok_server "start" (Server.start cfg) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown srv;
      Server.wait srv)
    (fun () ->
      let path = sock_path_of addr in
      let fds = Array.init cap (fun _ -> raw_connect path) in
      Fun.protect ~finally:(fun () -> Array.iter close_quietly fds)
      @@ fun () ->
      (* the connection over the cap is shed at accept: the kernel
         completes the unix-socket connect, then the server closes it
         without ever sending a hello *)
      let extra = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect ~finally:(fun () -> close_quietly extra)
      @@ fun () ->
      Unix.connect extra (Unix.ADDR_UNIX path);
      Unix.setsockopt_float extra Unix.SO_RCVTIMEO 5.0;
      (match Unix.read extra (Bytes.create 1) 0 1 with
      | 0 -> ()
      | _ -> Alcotest.fail "server greeted a connection above the cap"
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.fail "connection above the cap was left hanging");
      (* freeing slots reopens the door *)
      Array.iteri (fun i fd -> if i < cap / 2 then close_quietly fd) fds;
      let rec retry n =
        if n = 0 then Alcotest.fail "freed slots were never reusable"
        else
          match raw_connect path with
          | fd -> close_quietly fd
          | exception _ ->
            Unix.sleepf 0.05;
            retry (n - 1)
      in
      retry 40)

(* ---------- frame cap on the poller ---------- *)

(* The poller checks every length prefix against [Wire.default_max_frame]
   before buffering a byte of payload: a prefix one past the cap, or
   0xFFFFFFFF (which [Int32.to_int] reads as -1), closes that connection
   without a reply while everyone else keeps being served. *)
let test_oversized_frame_drops_connection () =
  with_tmp_dir @@ fun dir ->
  with_server dir @@ fun addr _srv ->
  let path = sock_path_of addr in
  let over = raw_connect path and neg = raw_connect path in
  Fun.protect
    ~finally:(fun () ->
      close_quietly over;
      close_quietly neg)
  @@ fun () ->
  with_client addr @@ fun c ->
  let send_prefix fd len =
    let b = Bytes.create 4 in
    Bytes.set_int32_le b 0 len;
    check_int "length prefix sent whole" 4 (Unix.write fd b 0 4)
  in
  send_prefix over (Int32.of_int (Wire.default_max_frame + 1));
  send_prefix neg 0xFFFF_FFFFl;
  List.iter
    (fun (name, fd) ->
      Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
      match Unix.read fd (Bytes.create 1) 0 1 with
      | 0 -> ()
      | _ -> Alcotest.failf "%s: server answered an oversized frame" name
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.failf "%s: oversized frame left the connection open" name
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> ())
    [ ("cap + 1", over); ("0xFFFFFFFF", neg) ];
  ok_client "concurrent client still served" (C.ping c)

(* ---------- select fallback, forced end to end via the env knob ---------- *)

let test_select_backend_e2e () =
  let prior = Sys.getenv_opt "UMRS_EVLOOP_BACKEND" in
  Unix.putenv "UMRS_EVLOOP_BACKEND" "select";
  Fun.protect
    ~finally:(fun () ->
      (* putenv cannot unset; an empty value falls back to the auto-pick *)
      Unix.putenv "UMRS_EVLOOP_BACKEND" (Option.value prior ~default:""))
    (fun () ->
      let loop = Evloop.create () in
      Fun.protect ~finally:(fun () -> Evloop.close loop) @@ fun () ->
      check_true "env knob steers the auto-pick"
        (Evloop.backend loop = Evloop.Select);
      (if Evloop.epoll_available () then begin
         (* ...but an explicit request always wins *)
         let l2 = Evloop.create ~backend:Evloop.Epoll () in
         Fun.protect ~finally:(fun () -> Evloop.close l2) @@ fun () ->
         check_true "explicit backend beats the env"
           (Evloop.backend l2 = Evloop.Epoll)
       end);
      (* a whole server runs its poller on select and serves the same
         contract: typed calls, a pipelined burst, raw-fd traffic *)
      with_tmp_dir @@ fun dir ->
      let corpus = build_corpus dir in
      with_server ~queue:128 ~corpus dir @@ fun addr _srv ->
      (with_client addr @@ fun c ->
       ok_client "ping over select" (C.ping c);
       let m = ok_client "nth over select" (C.nth c 0) in
       check_true "mem over select" (ok_client "mem" (C.mem c m));
       let rs =
         C.call_pipelined c (List.init 50 (fun i -> Wire.Nth (i mod 3)))
       in
       check_int "pipelined burst answered" 50 (List.length rs);
       List.iter (fun r -> ignore (ok_client "burst reply" r)) rs);
      let fd = raw_connect (sock_path_of addr) in
      Fun.protect ~finally:(fun () -> close_quietly fd) @@ fun () ->
      let frame =
        frame_of (Wire.encode_request ~id:9 ~deadline_ms:0 (Wire.Ping 9))
      in
      ignore (Unix.write fd frame 0 (Bytes.length frame));
      match read_reply fd with
      | 9, Wire.Reply (Wire.R_pong 9) -> ()
      | _ -> Alcotest.fail "select backend: bad raw ping reply")

(* ---------- protocol version mismatch, both directions ---------- *)

let test_version_mismatch_is_typed_and_clean () =
  with_tmp_dir @@ fun dir ->
  (* client side: a server greeting with the wrong version is a typed
     Protocol error naming both versions - never a hang or a crash *)
  let path = Filename.concat dir "old.sock" in
  let lfd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> close_quietly lfd) @@ fun () ->
  Unix.bind lfd (Unix.ADDR_UNIX path);
  Unix.listen lfd 1;
  let impostor =
    Thread.create
      (fun () ->
        let fd, _ = Unix.accept ~cloexec:true lfd in
        let greeting = Wire.hello () in
        Bytes.set_uint16_le greeting 8 (Wire.protocol_version + 1);
        ignore (Unix.write fd greeting 0 (Bytes.length greeting));
        (* drain the client's hello so its write never blocks *)
        (try read_exactly fd (Bytes.create Wire.hello_bytes) 0 Wire.hello_bytes
         with _ -> ());
        close_quietly fd)
      ()
  in
  (match C.connect (Wire.Unix_sock path) with
  | Error (C.Protocol msg) ->
    check_true "mismatch names the offered version"
      (let needle = string_of_int (Wire.protocol_version + 1) in
       let nl = String.length needle and ml = String.length msg in
       let rec scan i =
         i + nl <= ml && (String.sub msg i nl = needle || scan (i + 1))
       in
       scan 0)
  | Ok c ->
    C.close c;
    Alcotest.fail "client accepted a wrong-version hello"
  | Error e -> Alcotest.failf "expected Protocol, got %s" (C.error_to_string e));
  Thread.join impostor;
  (* server side: a client hello with the wrong version is answered by a
     clean close, promptly, with the server still serving others *)
  with_server dir @@ fun addr _srv ->
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> close_quietly fd) @@ fun () ->
  Unix.connect fd (Unix.ADDR_UNIX (sock_path_of addr));
  let bad = Wire.hello () in
  Bytes.set_uint16_le bad 8 (Wire.protocol_version + 1);
  ignore (Unix.write fd bad 0 (Bytes.length bad));
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  let buf = Bytes.create (2 * Wire.hello_bytes) in
  let rec drain_to_eof budget =
    if budget = 0 then Alcotest.fail "server never closed a wrong-version peer"
    else
      match Unix.read fd buf 0 (Bytes.length buf) with
      | 0 -> ()
      | _ -> drain_to_eof (budget - 1) (* a server hello in flight is fine *)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Alcotest.fail "wrong-version connection was left hanging"
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> ()
  in
  drain_to_eof 4;
  with_client addr @@ fun c ->
  ok_client "server survives a version mismatch" (C.ping c)

let test_evaluate_one_vertex () =
  (* n < 2 leaves no pair to route: every universal scheme answers with
     a 0-pair summary over the wire, equal to the local evaluation *)
  with_tmp_dir @@ fun dir ->
  with_server dir @@ fun addr _srv ->
  with_client addr @@ fun c ->
  let g = Generators.path 1 in
  List.iter
    (fun s ->
      let name = s.Scheme.name in
      let remote =
        ok_client name (C.evaluate c ~scheme:name ~graph_name:"k1" g)
      in
      check_true (name ^ ": remote = local")
        (remote = Scheme.evaluate s ~graph_name:"k1" g);
      check_int (name ^ ": no pairs") 0
        remote.Scheme.stretch.Stretch_dist.ds_pairs)
    (Registry.universal ())

let suite =
  [
    case "wire: requests round-trip" test_wire_request_roundtrip;
    case "wire: outcomes round-trip" test_wire_outcome_roundtrip;
    case "wire: hello and framing" test_wire_hello_and_frames;
    case "wire: graph digest" test_graph_digest_ports_matter;
    case "wire: byte image pinned per constructor" test_wire_golden_bytes;
    case "wire: impossible graph order rejected"
      test_wire_huge_graph_order_rejected;
    case "lru: eviction and promotion" test_lru;
    case "lru: single slot" test_lru_single_slot;
    case "jobqueue: bounded fifo" test_jobqueue_bounded;
    case "jobqueue: wakeups" test_jobqueue_unblocks_consumers;
    case "e2e: remote = local on every request type" test_e2e_remote_equals_local;
    case "e2e: rejections are typed and survivable" test_e2e_rejections;
    case "e2e: no corpus attached" test_e2e_no_corpus_is_refused;
    case "e2e: pipelined responses out of order" test_e2e_pipelining_out_of_order;
    case "deadline expiry is a typed timeout" test_deadline_expiry_is_typed_timeout;
    case "queue overflow is Overloaded, not a hang"
      test_queue_overflow_is_overloaded_not_a_hang;
    case "SIGTERM drains in-flight requests" test_sigterm_drains_in_flight;
    case "requests during drain are shed" test_requests_during_drain_are_overloaded;
    case "evaluation cache hits" test_evaluation_cache_hits;
    case "unix socket path is never stolen" test_unix_socket_path_safety;
    case "connection cap sheds excess connections"
      test_connection_cap_sheds_excess;
    case "bad configs are errors" test_bad_config_is_error;
    case "evloop: readiness, interest, wakeup" test_evloop_readiness_and_wakeup;
    case "evloop: single-fd poll" test_evloop_poll1;
    case "slowloris: a dripped frame is buffered, not a thread"
      test_slowloris_partial_frame;
    case "handshake timeout reaps silent connections"
      test_handshake_timeout_reaps_silent_conns;
    case "write backpressure survives a tiny high-water mark"
      test_write_backpressure_tiny_hwm;
    case "a thousand-plus live connections (past FD_SETSIZE)"
      test_thousand_plus_connections;
    case "connection cap holds at scale" test_connection_cap_at_scale;
    case "oversized length prefix drops only that connection"
      test_oversized_frame_drops_connection;
    case "select fallback serves the same contract end to end"
      test_select_backend_e2e;
    case "protocol version mismatch is typed and clean"
      test_version_mismatch_is_typed_and_clean;
    case "evaluate on a 1-vertex graph" test_evaluate_one_vertex;
  ]
