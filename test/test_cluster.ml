(* The cluster subsystem end to end: shard-map codec and routing
   invariants, corpus splitting (pieces re-concatenate to the source,
   byte for byte), the checksummed map file, and live clusters - a
   differential check that a sharded cluster answers byte-identically
   to a single server over the unsharded corpus, replica failover when
   primaries die, and transparent shard-map refresh after a stale
   verdict. *)

open Umrs_core
open Helpers
module Corpus = Umrs_store.Corpus
module Shard = Umrs_store.Shard
module Q = Umrs_store.Query
module Wire = Umrs_server.Wire
module Server = Umrs_server.Server
module C = Umrs_client
module Shard_map = Umrs_cluster.Shard_map
module Cluster = Umrs_cluster.Cluster
module Cl = Umrs_cluster.Client
module Co = Umrs_cluster.Coordinator
module Ms = Umrs_cluster.Membership
module Fault = Umrs_fault.Fault

let with_tmp_dir f =
  let dir = Filename.temp_file "umrs_cluster" "" in
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

let build_corpus dir =
  let corpus = Filename.concat dir "ref.corpus" in
  ignore (Umrs_store.Builder.build ~p:2 ~q:3 ~d:3 ~out:corpus ());
  (match Q.build ~corpus () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "index build: %s" (Q.error_to_string e));
  corpus

(* A corpus split three ways plus a map over synthetic endpoints - the
   fixture for every test that needs a topology but no live servers. *)
let split_fixture dir ~shards =
  let corpus = build_corpus dir in
  let pieces =
    match Shard.split ~corpus ~shards () with
    | Ok ps -> ps
    | Error e -> Alcotest.failf "split: %s" e
  in
  let endpoints =
    Array.init (Array.length pieces) (fun k ->
        ( Wire.Unix_sock (Printf.sprintf "/run/n%dp.sock" k),
          [ Wire.Tcp (Printf.sprintf "replica-%d.local" k, 7700 + k) ] ))
  in
  let map =
    Shard_map.build ~source:(Corpus.info ~path:corpus) ~version:3 ~pieces
      ~endpoints
  in
  (corpus, pieces, map)

let with_cluster ~shards ?(replicas = 0) ?map_version dir f =
  let corpus = build_corpus dir in
  let cdir = Filename.concat dir "cluster" in
  match Cluster.start ~corpus ~shards ~dir:cdir ~replicas ?map_version () with
  | Error e -> Alcotest.failf "cluster start: %s" e
  | Ok t ->
    Fun.protect
      ~finally:(fun () ->
        Cluster.shutdown t;
        Cluster.wait t)
      (fun () -> f corpus t)

(* ---------- wire codec and stale verdicts ---------- *)

let test_map_codec_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let _, _, map = split_fixture dir ~shards:3 in
  check_true "built map validates" (Wire.validate_shard_map map = Ok ());
  let map' = Wire.shard_map_of_bytes (Wire.shard_map_to_bytes map) in
  check_true "map round-trips through the codec" (map = map');
  check_true "corpus identity preserved"
    (Wire.corpus_header_of_map map' = Wire.corpus_header_of_map map);
  (* a stale-shard verdict carries a version the client can parse back *)
  (match Wire.stale_shard_reject ~version:7 with
  | Wire.Rejected msg ->
    check_true "stale verdict parses back"
      (Wire.stale_shard_version msg = Some 7)
  | _ -> Alcotest.fail "stale reject must be a Rejected verdict");
  check_true "ordinary rejections do not parse as stale"
    (Wire.stale_shard_version "no such record" = None)

let test_validate_rejects_broken_maps () =
  with_tmp_dir @@ fun dir ->
  let _, _, map = split_fixture dir ~shards:3 in
  let broken what m =
    match Wire.validate_shard_map m with
    | Error _ -> ()
    | Ok () -> Alcotest.failf "%s: accepted" what
  in
  let sh = map.Wire.sm_shards in
  broken "no shards" { map with Wire.sm_shards = [||] };
  broken "range gap"
    { map with
      Wire.sm_shards =
        [| sh.(0); { sh.(1) with Wire.sh_lo = sh.(1).Wire.sh_lo + 1 }; sh.(2) |] };
  broken "last shard stops short"
    { map with
      Wire.sm_shards =
        [| sh.(0); sh.(1); { sh.(2) with Wire.sh_hi = sh.(2).Wire.sh_hi - 1 } |] };
  broken "empty shard"
    { map with
      Wire.sm_shards =
        [| sh.(0); { sh.(1) with Wire.sh_hi = sh.(1).Wire.sh_lo } |] };
  broken "boundary keys out of order"
    { map with
      Wire.sm_shards =
        [| sh.(0); { sh.(1) with Wire.sh_key = sh.(0).Wire.sh_key }; sh.(2) |] };
  broken "boundary key arity"
    { map with
      Wire.sm_shards = [| { sh.(0) with Wire.sh_key = [| 1; 1 |] }; sh.(1); sh.(2) |] }

(* ---------- routing invariants against a real corpus ---------- *)

let test_routing_invariants () =
  with_tmp_dir @@ fun dir ->
  let corpus, _, map = split_fixture dir ~shards:3 in
  let _, records = Corpus.load ~path:corpus in
  let count = List.length records in
  let ns = Array.length map.Wire.sm_shards in
  check_int "three shards" 3 ns;
  List.iteri
    (fun i m ->
      let owner = Wire.route_index map i in
      let sh = map.Wire.sm_shards.(owner) in
      check_true "rank lies inside its owner's range"
        (sh.Wire.sh_lo <= i && i < sh.Wire.sh_hi);
      check_int "key routes to the rank's shard" owner (Wire.route_matrix map m);
      check_int "raw key agrees" owner (Wire.route_key map (Wire.matrix_key m));
      let a, b = Wire.route_prefix map (Wire.matrix_key m) in
      check_true "full-key span covers the owner" (a <= owner && owner <= b))
    records;
  check_true "rank = count is out of range"
    (match Wire.route_index map count with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_true "negative rank is out of range"
    (match Wire.route_index map (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check_int "a key below every boundary routes to shard 0" 0
    (Wire.route_key map (Array.make 6 0));
  check_true "the empty prefix spans every shard"
    (Wire.route_prefix map [||] = (0, ns - 1))

(* ---------- splitting: nothing lost, nothing reordered ---------- *)

let test_split_preserves_the_corpus () =
  with_tmp_dir @@ fun dir ->
  let corpus, pieces, _ = split_fixture dir ~shards:3 in
  let _, originals = Corpus.load ~path:corpus in
  let count = List.length originals in
  let reassembled =
    Array.to_list pieces
    |> List.concat_map (fun pc -> snd (Corpus.load ~path:pc.Shard.pc_corpus))
  in
  check_int "every record present" count (List.length reassembled);
  List.iter2
    (fun a b -> check_true "records equal, in source order" (Matrix.equal a b))
    originals reassembled;
  Array.iteri
    (fun k pc ->
      let v = Corpus.verify ~path:pc.Shard.pc_corpus in
      check_true "piece is an intact corpus" (v.Corpus.v_problems = []);
      check_int "piece count matches its range" (pc.Shard.pc_hi - pc.Shard.pc_lo)
        v.Corpus.v_records_read;
      let lo, hi = Shard.bounds ~count ~shards:3 k in
      check_int "lo is the contract" lo pc.Shard.pc_lo;
      check_int "hi is the contract" hi pc.Shard.pc_hi;
      check_true "boundary key is the first record's key"
        (pc.Shard.pc_key = Shard.matrix_key (List.nth originals pc.Shard.pc_lo));
      check_true "piece has a usable index"
        (match Q.open_ ~corpus:pc.Shard.pc_corpus () with
        | Ok q ->
          Q.close q;
          true
        | Error _ -> false))
    pieces;
  check_true "more shards than records is an error, not a crash"
    (match Shard.split ~corpus ~shards:(count + 1) () with
    | Error _ -> true
    | Ok _ -> false);
  check_true "shards < 1 is a caller error"
    (match Shard.split ~corpus ~shards:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---------- the map file ---------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

let write_file path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_map_file_roundtrip_and_corruption () =
  with_tmp_dir @@ fun dir ->
  let _, _, map = split_fixture dir ~shards:3 in
  let path = Filename.concat dir "m.umrsm" in
  Shard_map.save ~path map;
  (match Shard_map.load ~path with
  | Ok m -> check_true "load returns what save wrote" (m = map)
  | Error e -> Alcotest.failf "load: %s" e);
  let original = read_file path in
  let flip b i =
    let c = Bytes.copy b in
    Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor 0xFF));
    c
  in
  let corrupt what bytes =
    write_file path bytes;
    match Shard_map.load ~path with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s went undetected" what
  in
  corrupt "a bad magic" (flip original 0);
  corrupt "an unknown schema" (flip original 8);
  corrupt "a flipped payload byte" (flip original (Bytes.length original - 1));
  corrupt "a truncated payload" (Bytes.sub original 0 (Bytes.length original - 3));
  corrupt "a file shorter than the header" (Bytes.sub original 0 10);
  (* corruption detection is non-destructive: the original still loads *)
  write_file path original;
  check_true "pristine bytes still load"
    (match Shard_map.load ~path with Ok m -> m = map | Error _ -> false)

(* ---------- live cluster: differential against a single node ---------- *)

let test_differential_cluster_equals_single_node () =
  with_tmp_dir @@ fun dir ->
  with_cluster ~shards:3 ~replicas:1 dir @@ fun corpus cl ->
  check_int "nodes running" 6 (Cluster.live_nodes cl);
  (match Shard_map.load ~path:(Cluster.map_path cl) with
  | Ok m -> check_true "persisted map matches the live one" (m = Cluster.map cl)
  | Error e -> Alcotest.failf "persisted map: %s" e);
  (* the reference: one server over the unsharded corpus *)
  let saddr = Wire.Unix_sock (Filename.concat dir "single.sock") in
  let cfg =
    { (Server.default_config saddr) with
      Server.corpus = Some corpus; workers = 2; queue_capacity = 32;
      cache_capacity = 8 }
  in
  let srv = ok_server "single start" (Server.start cfg) in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown srv;
      Server.wait srv)
  @@ fun () ->
  let sc = ok_client "single connect" (C.connect ~retries:5 saddr) in
  Fun.protect ~finally:(fun () -> C.close sc) @@ fun () ->
  (* bootstrap the routing client from a replica, not a primary *)
  let cc = ok_client "fetch map" (Cl.fetch (Cluster.addr cl ~shard:1 ~role:1)) in
  Fun.protect ~finally:(fun () -> Cl.close cc) @@ fun () ->
  ok_client "cluster ping" (Cl.ping cc);
  let h = ok_client "cluster info" (Cl.corpus_info cc) in
  check_true "cluster header = single header"
    (h = ok_client "single info" (C.corpus_info sc));
  let n = h.Corpus.count in
  check_true "corpus non-trivial" (n >= 3);
  for i = 0 to n - 1 do
    let m = ok_client "single nth" (C.nth sc i) in
    check_true "nth equal" (Matrix.equal m (ok_client "cluster nth" (Cl.nth cc i)));
    check_true "mem equal"
      (ok_client "cluster mem" (Cl.mem cc m) = ok_client "single mem" (C.mem sc m));
    check_int "rank equal"
      (ok_client "single rank" (C.rank sc m))
      (ok_client "cluster rank" (Cl.rank cc m));
    check_true "cgraph equal"
      (ok_client "cluster cgraph" (Cl.cgraph cc i)
      = ok_client "single cgraph" (C.cgraph sc i))
  done;
  (* prefix ranges exercise every span shape: all shards, one shard,
     shard boundaries, and prefixes with no matches *)
  List.iter
    (fun prefix ->
      check_true "range_prefix equal"
        (ok_client "cluster range" (Cl.range_prefix cc prefix)
        = ok_client "single range" (C.range_prefix sc prefix)))
    [ [||]; [| 1 |]; [| 2 |]; [| 3 |]; [| 1; 2 |]; [| 1; 1; 2 |];
      [| 2; 3; 1 |]; [| 1; 2; 1; 1; 1; 2 |] ];
  let absent = Matrix.create_relaxed [| [| 3; 3; 3 |]; [| 3; 3; 3 |] |] in
  check_true "absent mem equal"
    (ok_client "cluster mem" (Cl.mem cc absent)
    = ok_client "single mem" (C.mem sc absent));
  check_int "absent rank equal"
    (ok_client "single rank" (C.rank sc absent))
    (ok_client "cluster rank" (Cl.rank cc absent));
  (* one batch of every shape: buckets per shard, reassembles in order *)
  let m0 = ok_client "m0" (C.nth sc 0) in
  let reqs =
    [ Wire.Ping 77; Wire.Nth 0; Wire.Range_prefix [||]; Wire.Mem m0;
      Wire.Rank m0; Wire.Nth (n - 1); Wire.Range_prefix [| 1 |];
      Wire.Nth (n / 2) ]
  in
  let cluster_rs = Cl.batch cc reqs in
  let single_rs = C.call_pipelined sc reqs in
  check_int "batch answered in full" (List.length reqs) (List.length cluster_rs);
  List.iter2
    (fun a b ->
      check_true "batch slot equal"
        (ok_client "cluster slot" a = ok_client "single slot" b))
    cluster_rs single_rs;
  (* out of range comes back Refused, exactly as a single server answers *)
  (match Cl.nth cc (n + 5) with
  | Error (C.Refused _) -> ()
  | _ -> Alcotest.fail "out-of-range nth must be Refused");
  match Cl.nth cc (-1) with
  | Error (C.Refused _) -> ()
  | _ -> Alcotest.fail "negative nth must be Refused"

(* ---------- failover: killing primaries is invisible ---------- *)

let test_failover_survives_primary_loss () =
  with_tmp_dir @@ fun dir ->
  with_cluster ~shards:2 ~replicas:1 dir @@ fun corpus cl ->
  let _, records = Corpus.load ~path:corpus in
  let n = List.length records in
  let cc = ok_client "fetch" (Cl.fetch (Cluster.addr cl ~shard:0 ~role:0)) in
  Fun.protect ~finally:(fun () -> Cl.close cc) @@ fun () ->
  (* warm every group through its primary *)
  for i = 0 to n - 1 do
    ignore (ok_client "warm nth" (Cl.nth cc i))
  done;
  check_int "all nodes up" 4 (Cluster.live_nodes cl);
  (* kill every primary: the replicas must absorb the whole keyspace *)
  Cluster.kill_primary cl 0;
  Cluster.kill_primary cl 1;
  check_int "only replicas left" 2 (Cluster.live_nodes cl);
  List.iteri
    (fun i m ->
      check_true "answers unchanged after the kill"
        (Matrix.equal m (ok_client "nth after kill" (Cl.nth cc i))))
    records;
  check_true "ranges still merge"
    (match Cl.range_prefix cc [||] with Ok (0, h) -> h = n | _ -> false);
  ok_client "ping after kill" (Cl.ping cc);
  let s = Cl.stats cc in
  check_true "failovers recorded" (s.Cl.s_failovers >= 2);
  check_int "graceful kills crash no workers" 0 (Cluster.worker_crashes cl);
  (* kill is idempotent *)
  Cluster.kill_primary cl 0;
  check_int "idempotent kill" 2 (Cluster.live_nodes cl)

(* ---------- stale shard map: refresh, re-route, answer ---------- *)

let test_stale_map_refreshes_transparently () =
  with_tmp_dir @@ fun dir ->
  with_cluster ~shards:2 ~map_version:2 dir @@ fun corpus cl ->
  let _, records = Corpus.load ~path:corpus in
  (* a client holding version 1 with the endpoint groups swapped: every
     routed request lands on the wrong node, whose stale verdict names
     version 2; the client must refresh once and answer correctly *)
  let live = Cluster.map cl in
  let sh = live.Wire.sm_shards in
  let doctored =
    { live with
      Wire.sm_version = 1;
      sm_shards =
        [| { sh.(0) with Wire.sh_primary = sh.(1).Wire.sh_primary;
             sh_replicas = sh.(1).Wire.sh_replicas };
           { sh.(1) with Wire.sh_primary = sh.(0).Wire.sh_primary;
             sh_replicas = sh.(0).Wire.sh_replicas } |] }
  in
  check_true "the doctored map still validates"
    (Wire.validate_shard_map doctored = Ok ());
  let cc = Cl.of_map doctored in
  Fun.protect ~finally:(fun () -> Cl.close cc) @@ fun () ->
  let got = ok_client "nth through a stale map" (Cl.nth cc 0) in
  check_true "right record despite the stale map"
    (Matrix.equal (List.hd records) got);
  let s = Cl.stats cc in
  check_true "a refresh happened" (s.Cl.s_refreshes >= 1);
  check_int "client converged on the live version" 2 (Cl.map cc).Wire.sm_version;
  (* and the refreshed topology routes everything *)
  List.iteri
    (fun i m ->
      check_true "post-refresh answers"
        (Matrix.equal m (ok_client "nth" (Cl.nth cc i))))
    records

(* ---------- supervisor edges ---------- *)

let test_cluster_start_failures_leak_nothing () =
  with_tmp_dir @@ fun dir ->
  (match
     Cluster.start
       ~corpus:(Filename.concat dir "absent.corpus")
       ~shards:2
       ~dir:(Filename.concat dir "c1")
       ()
   with
  | Error _ -> ()
  | Ok t ->
    Cluster.shutdown t;
    Cluster.wait t;
    Alcotest.fail "a missing corpus must fail to start");
  let corpus = build_corpus dir in
  (match
     Cluster.start ~corpus ~shards:10_000 ~dir:(Filename.concat dir "c2") ()
   with
  | Error _ -> ()
  | Ok t ->
    Cluster.shutdown t;
    Cluster.wait t;
    Alcotest.fail "more shards than records must fail to start");
  check_true "negative replicas are a caller error"
    (match
       Cluster.start ~corpus ~shards:1 ~dir:(Filename.concat dir "c3")
         ~replicas:(-1) ()
     with
    | exception Invalid_argument _ -> true
    | Error _ | Ok _ -> false)

(* ---------- membership control plane: wire codec ---------- *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let test_membership_wire_roundtrip () =
  with_tmp_dir @@ fun dir ->
  let _, _, map = split_fixture dir ~shards:3 in
  let a1 = Wire.Unix_sock "/run/node-1.sock" in
  let a2 = Wire.Tcp ("node-2.local", 7711) in
  let req r =
    let id, dl, r' =
      Wire.decode_request (Wire.encode_request ~id:9 ~deadline_ms:250 r)
    in
    check_int "request id survives" 9 id;
    check_int "request deadline survives" 250 dl;
    check_true "request round-trips" (r = r')
  in
  List.iter req
    [ Wire.Join { jn_addr = a1; jn_ready = false; jn_checksum = 0L };
      Wire.Join { jn_addr = a2; jn_ready = true; jn_checksum = 0xDEADBEEFL };
      Wire.Leave a1;
      Wire.Heartbeat { hb_addr = a2; hb_version = 41; hb_checksum = 7L };
      Wire.Reshard (Wire.Split 2);
      Wire.Reshard (Wire.Merge 0);
      Wire.Handoff_done
        { hd_addr = a1; hd_lo = 3; hd_hi = 9; hd_key = [| 1; 2; 1 |];
          hd_checksum = 99L };
      Wire.Cluster_status ];
  let out o =
    let id, o' = Wire.decode_outcome (Wire.encode_outcome ~id:4 o) in
    check_int "outcome id survives" 4 id;
    check_true "outcome round-trips" (o = o')
  in
  let members =
    [ { Wire.mi_addr = a1; mi_shard = -1; mi_state = Wire.Joining;
        mi_in_map = false; mi_primary = false; mi_checksum = 0L;
        mi_beat_age = 0.25 };
      { Wire.mi_addr = a2; mi_shard = 2; mi_state = Wire.Ready;
        mi_in_map = true; mi_primary = true; mi_checksum = 5L;
        mi_beat_age = 1.5 } ]
  in
  List.iter out
    [ Wire.Reply
        (Wire.R_joined
           { jr_shard = 1; jr_lo = 4; jr_hi = 8; jr_donor = a2;
             jr_checksum = 3L; jr_version = 9; jr_map = Some map });
      Wire.Reply
        (Wire.R_joined
           { jr_shard = 0; jr_lo = 0; jr_hi = 4; jr_donor = a1;
             jr_checksum = 0L; jr_version = 1; jr_map = None });
      Wire.Reply
        (Wire.R_heartbeat
           { rh_version = 12; rh_known = true;
             rh_cmd =
               Some
                 (Wire.Cmd_acquire
                    { aq_lo = 4; aq_hi = 8; aq_donor = a1; aq_map = Some map })
           });
      Wire.Reply
        (Wire.R_heartbeat
           { rh_version = 12; rh_known = true;
             rh_cmd =
               Some
                 (Wire.Cmd_acquire
                    { aq_lo = 0; aq_hi = 2; aq_donor = a2; aq_map = None }) });
      Wire.Reply (Wire.R_heartbeat { rh_version = 0; rh_known = false; rh_cmd = None });
      Wire.Reply
        (Wire.R_status { cs_version = 5; cs_published = true; cs_members = members });
      Wire.Reply
        (Wire.R_status { cs_version = 0; cs_published = false; cs_members = [] });
      Wire.Reply (Wire.R_slice { sl_version = 17; sl_lo = 4; sl_hi = 9 });
      Wire.Reply (Wire.R_accepted "split of shard 2 started") ]

(* ---------- sweeping a crashed node's leftovers ---------- *)

let test_clean_dir_sweeps_crash_leftovers () =
  with_tmp_dir @@ fun dir ->
  let ndir = Filename.concat dir "node" in
  ok_server "sweep creates a missing dir" (Ms.clean_dir ndir);
  check_true "dir exists afterwards" (Sys.is_directory ndir);
  (* a socket path left behind by a crashed server: bound, nobody home *)
  let stale = Filename.concat ndir "crashed.sock" in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX stale);
  Unix.close fd;
  (* an interrupted atomic publication *)
  let tmp = Filename.concat ndir "piece.0-4.corpus.tmp" in
  write_file tmp (Bytes.of_string "half-written");
  (* a finished piece must survive the sweep *)
  let piece = Ms.piece_path ndir 0 4 in
  write_file piece (Bytes.of_string "data");
  ok_server "sweep over leftovers" (Ms.clean_dir ndir);
  check_true "stale socket removed" (not (Sys.file_exists stale));
  check_true "tmp leftover removed" (not (Sys.file_exists tmp));
  check_true "piece file kept" (Sys.file_exists piece);
  (* a socket a live server answers on is an error, never a delete *)
  let live = Filename.concat ndir "live.sock" in
  let srv =
    ok_server "live server"
      (Server.start (Server.default_config (Wire.Unix_sock live)))
  in
  Fun.protect
    ~finally:(fun () ->
      Server.shutdown srv;
      Server.wait srv)
  @@ fun () ->
  (match Ms.clean_dir ndir with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "sweeping over a live socket must refuse");
  check_true "live socket untouched" (Sys.file_exists live)

(* ---------- load errors name the file and the field ---------- *)

let test_map_load_errors_name_path_and_field () =
  with_tmp_dir @@ fun dir ->
  let _, _, map = split_fixture dir ~shards:3 in
  let path = Filename.concat dir "named.umrsm" in
  Shard_map.save ~path map;
  let original = read_file path in
  let flip b i =
    let c = Bytes.copy b in
    Bytes.set c i (Char.chr (Char.code (Bytes.get c i) lxor 0xFF));
    c
  in
  let expect field bytes =
    write_file path bytes;
    match Shard_map.load ~path with
    | Ok _ -> Alcotest.failf "%s corruption went undetected" field
    | Error m ->
      check_true (field ^ ": error names the file") (contains m path);
      check_true
        (field ^ ": error names the offending field")
        (contains m ("shard map " ^ field))
  in
  expect "header" (Bytes.sub original 0 10);
  expect "magic" (flip original 0);
  expect "schema" (flip original 8);
  expect "payload length" (Bytes.sub original 0 (Bytes.length original - 3));
  expect "checksum" (flip original (Bytes.length original - 1))

(* ---------- refresh stampede: N stale verdicts, one fetch ---------- *)

let test_refresh_stampede_fetches_once () =
  with_tmp_dir @@ fun dir ->
  with_cluster ~shards:2 ~map_version:2 dir @@ fun corpus cl ->
  let _, records = Corpus.load ~path:corpus in
  let recs = Array.of_list records in
  let live = Cluster.map cl in
  let sh = live.Wire.sm_shards in
  (* every thread routes through the doctored v1 map, lands on the
     wrong node, and draws a stale verdict at the same moment *)
  let doctored =
    { live with
      Wire.sm_version = 1;
      sm_shards =
        [| { sh.(0) with Wire.sh_primary = sh.(1).Wire.sh_primary;
             sh_replicas = sh.(1).Wire.sh_replicas };
           { sh.(1) with Wire.sh_primary = sh.(0).Wire.sh_primary;
             sh_replicas = sh.(0).Wire.sh_replicas } |] }
  in
  let cc = Cl.of_map doctored in
  Fun.protect ~finally:(fun () -> Cl.close cc) @@ fun () ->
  let threads = 8 in
  let errors = Array.make threads None in
  let ths =
    Array.init threads (fun k ->
        Thread.create
          (fun () ->
            let idx = k mod Array.length recs in
            match Cl.nth cc idx with
            | Ok m ->
              if not (Matrix.equal m recs.(idx)) then
                errors.(k) <- Some "wrong record"
            | Error e -> errors.(k) <- Some (C.error_to_string e))
          ())
  in
  Array.iter Thread.join ths;
  Array.iteri
    (fun k -> function
      | None -> ()
      | Some e -> Alcotest.failf "stampede thread %d: %s" k e)
    errors;
  let s = Cl.stats cc in
  check_int "the stampede collapsed to a single refresh" 1 s.Cl.s_refreshes;
  check_int "client converged on the live version" 2 (Cl.map cc).Wire.sm_version

(* ---------- multi-process membership, in-process edition ----------

   The bench drives real OS processes; these tests drive the same
   coordinator + node agents as threads, where assertions can reach
   internal counters. *)

let await ?(timeout = 30.0) ?(dump = fun () -> "") what cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if cond () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s%s" what (dump ())
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

let addr_in_map addr sm =
  Array.exists
    (fun sh -> sh.Wire.sh_primary = addr || List.mem addr sh.Wire.sh_replicas)
    sm.Wire.sm_shards

let members_in_map sm =
  Array.fold_left
    (fun acc sh -> acc + 1 + List.length sh.Wire.sh_replicas)
    0 sm.Wire.sm_shards

let test_membership_join_failover_reshard_catchup () =
  with_tmp_dir @@ fun dir ->
  let corpus = Filename.concat dir "wide.corpus" in
  ignore (Umrs_store.Builder.build ~p:2 ~q:4 ~d:3 ~out:corpus ());
  (match Q.build ~corpus () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "index build: %s" (Q.error_to_string e));
  let _, records = Corpus.load ~path:corpus in
  let recs = Array.of_list records in
  let n = Array.length recs in
  check_true "corpus wide enough to split" (n >= 8);
  let co_addr = Wire.Unix_sock (Filename.concat dir "co.sock") in
  let co_cfg =
    { (Co.default_config ~dir:(Filename.concat dir "co") ~corpus
         ~listen:co_addr)
      with Co.heartbeat = 0.05; miss_limit = 4 }
  in
  let co = ok_server "coordinator" (Co.start co_cfg) in
  let nodes = Hashtbl.create 8 in
  let keys = Hashtbl.create 8 in
  let stop_all () =
    Hashtbl.iter (fun _ m -> Ms.stop m) nodes;
    Hashtbl.iter (fun _ m -> Ms.wait m) nodes;
    Hashtbl.reset nodes;
    Co.shutdown co;
    Co.wait co
  in
  Fun.protect ~finally:stop_all @@ fun () ->
  let spawn k =
    let ndir = Filename.concat dir (Printf.sprintf "n%d" k) in
    let cfg =
      { (Ms.default_config ~coordinator:co_addr ~dir:ndir
           ~listen:(Wire.Unix_sock (Filename.concat ndir "s.sock")))
        with Ms.heartbeat = 0.05 }
    in
    let m = ok_server "node start" (Ms.start cfg) in
    Hashtbl.replace nodes (Ms.self_addr m) m;
    Hashtbl.replace keys (Ms.self_addr m) k;
    m
  in
  ignore (spawn 0);
  ignore (spawn 1);
  ignore (spawn 2);
  await "all three members in the published map" (fun () ->
      match Co.published co with
      | Some sm -> members_in_map sm = 3
      | None -> false);
  let cc = ok_client "bootstrap from the coordinator" (Cl.fetch co_addr) in
  Fun.protect ~finally:(fun () -> Cl.close cc) @@ fun () ->
  let op = ok_client "operator connect" (C.connect ~retries:5 co_addr) in
  Fun.protect ~finally:(fun () -> C.close op) @@ fun () ->
  let check_all_reads tag =
    Array.iteri
      (fun i m ->
        check_true
          (tag ^ ": answers byte-identical")
          (Matrix.equal m (ok_client tag (Cl.nth cc i))))
      recs
  in
  (* mi_checksum is the checksum last *heartbeated*, so right after a
     flip a co-owner can lag a beat behind - await convergence *)
  let assert_checksums_agree tag =
    let canon lo hi =
      let acc = ref Corpus.fnv64_seed in
      for i = lo to hi - 1 do
        acc := Corpus.fnv64 !acc (Corpus.Record.encode ~p:2 ~q:4 ~d:3 recs.(i))
      done;
      !acc
    in
    let dump () =
      let ranges =
        match Co.published co with
        | None -> ""
        | Some sm ->
          Array.to_list sm.Wire.sm_shards
          |> List.mapi (fun k sh ->
                 Printf.sprintf "\n  shard %d [%d,%d) canonical=%Lx" k
                   sh.Wire.sh_lo sh.Wire.sh_hi
                   (canon sh.Wire.sh_lo sh.Wire.sh_hi))
          |> String.concat ""
      in
      let local =
        Hashtbl.fold
          (fun addr m acc ->
            Printf.sprintf "%s\n  local %s range=%s ck=%Lx catchups=%d err=%s"
              acc
              (Wire.addr_to_string addr)
              (match Ms.range m with
              | Some (lo, hi) -> Printf.sprintf "[%d,%d)" lo hi
              | None -> "-")
              (Ms.checksum m) (Ms.catchups m)
              (match Ms.last_error m with Some e -> e | None -> "-"))
          nodes ""
      in
      match C.cluster_status op with
      | Error e -> ": status: " ^ C.error_to_string e
      | Ok (v, published, members) ->
        List.fold_left
          (fun acc mi ->
            Printf.sprintf "%s\n  %s shard=%d in_map=%b ck=%Lx state=%s" acc
              (Wire.addr_to_string mi.Wire.mi_addr)
              mi.Wire.mi_shard mi.Wire.mi_in_map mi.Wire.mi_checksum
              (match mi.Wire.mi_state with
              | Wire.Joining -> "joining"
              | Wire.Ready -> "ready"
              | Wire.Dead -> "dead"))
          (Printf.sprintf ": v=%d published=%b%s%s" v published ranges local)
          members
    in
    await ~dump (tag ^ ": co-owners hold byte-identical pieces") (fun () ->
        match C.cluster_status op with
        | Error _ -> false
        | Ok (_, published, members) ->
          let by_shard = Hashtbl.create 4 in
          published
          && List.for_all
               (fun mi ->
                 (not mi.Wire.mi_in_map)
                 ||
                 match Hashtbl.find_opt by_shard mi.Wire.mi_shard with
                 | None ->
                   Hashtbl.add by_shard mi.Wire.mi_shard mi.Wire.mi_checksum;
                   true
                 | Some c -> c = mi.Wire.mi_checksum)
               members)
  in
  check_all_reads "after join";
  assert_checksums_agree "after join";
  (* kill the primary of the double-staffed shard, silently: the
     detector must declare it dead, promote its replica, republish *)
  let sm0 = match Co.published co with Some sm -> sm | None -> assert false in
  let victim_sh =
    match
      Array.find_opt (fun sh -> sh.Wire.sh_replicas <> []) sm0.Wire.sm_shards
    with
    | Some sh -> sh
    | None -> Alcotest.fail "expected a shard with a replica"
  in
  let victim_addr = victim_sh.Wire.sh_primary in
  let victim = Hashtbl.find nodes victim_addr in
  Ms.stop ~leave:false victim;
  Ms.wait victim;
  Hashtbl.remove nodes victim_addr;
  await "the silent victim declared dead" (fun () -> Co.deaths co >= 1);
  await "its replica promoted" (fun () -> Co.promotions co >= 1);
  await "map republished without the victim" (fun () ->
      match Co.published co with
      | Some sm -> not (addr_in_map victim_addr sm)
      | None -> false);
  check_all_reads "after failover";
  (* the victim returns in the same dir: catch-up decides by checksum,
     so at most the other shard's piece is streamed, and the node
     re-enters the published map *)
  let back = spawn (Hashtbl.find keys victim_addr) in
  await "the returning node re-entered the map" (fun () ->
      match Co.published co with
      | Some sm -> addr_in_map (Ms.self_addr back) sm && members_in_map sm = 3
      | None -> false);
  check_true "catch-up streamed at most one piece" (Ms.catchups back <= 1);
  check_all_reads "after catch-up";
  assert_checksums_agree "after catch-up";
  (* online resharding under continuous verified reads: a background
     reader must never observe wrong bytes - transient errors are
     retried, silence about wrong data is the one unforgivable sin *)
  let stop_reading = Atomic.make false in
  let rmu = Mutex.create () in
  let reader_errors = ref [] in
  let record_failure msg =
    Mutex.lock rmu;
    reader_errors := msg :: !reader_errors;
    Mutex.unlock rmu
  in
  let reader =
    Thread.create
      (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop_reading) do
          let idx = !i mod n in
          incr i;
          let rec attempt tries =
            match Cl.nth cc idx with
            | Ok m ->
              if not (Matrix.equal m recs.(idx)) then
                record_failure (Printf.sprintf "nth %d: wrong record" idx)
            | Error e ->
              if tries >= 100 then
                record_failure
                  (Printf.sprintf "nth %d: %s" idx (C.error_to_string e))
              else begin
                Thread.delay 0.01;
                attempt (tries + 1)
              end
          in
          attempt 0
        done)
      ()
  in
  let catchups_sum () =
    Hashtbl.fold (fun _ m acc -> acc + Ms.catchups m) nodes 0
  in
  let before_split = catchups_sum () in
  let vbefore = Co.version co in
  ignore (ok_client "split" (C.reshard op (Wire.Split 0)));
  await "split flipped and republished" (fun () ->
      match Co.published co with
      | Some sm ->
        Array.length sm.Wire.sm_shards = 3 && sm.Wire.sm_version > vbefore
      | None -> false);
  check_true "the split streamed a new piece" (catchups_sum () > before_split);
  let vsplit =
    match Co.published co with Some sm -> sm.Wire.sm_version | None -> 0
  in
  ignore (ok_client "merge" (C.reshard op (Wire.Merge 0)));
  await "merge folded back to two shards" (fun () ->
      match Co.published co with
      | Some sm ->
        Array.length sm.Wire.sm_shards = 2 && sm.Wire.sm_version > vsplit
      | None -> false);
  await "the orphaned owner re-joined" (fun () ->
      match Co.published co with
      | Some sm -> members_in_map sm = 3
      | None -> false);
  Atomic.set stop_reading true;
  Thread.join reader;
  (match !reader_errors with
  | [] -> ()
  | e :: _ ->
    Alcotest.failf "reader under resharding: %s (%d failures)" e
      (List.length !reader_errors));
  check_all_reads "after resharding";
  assert_checksums_agree "after resharding"

(* ---------- heartbeat loss: false positive, then healing ---------- *)

let test_heartbeat_loss_false_positive_recovery () =
  with_tmp_dir @@ fun dir ->
  let corpus = build_corpus dir in
  let co_addr = Wire.Unix_sock (Filename.concat dir "co.sock") in
  let co_cfg =
    { (Co.default_config ~dir:(Filename.concat dir "co") ~corpus
         ~listen:co_addr)
      with Co.heartbeat = 0.05; miss_limit = 3; shards = 1 }
  in
  let co = ok_server "coordinator" (Co.start co_cfg) in
  let spawn k =
    let ndir = Filename.concat dir (Printf.sprintf "n%d" k) in
    let cfg =
      { (Ms.default_config ~coordinator:co_addr ~dir:ndir
           ~listen:(Wire.Unix_sock (Filename.concat ndir "s.sock")))
        with Ms.heartbeat = 0.05 }
    in
    ok_server "node start" (Ms.start cfg)
  in
  let n0 = spawn 0 in
  let n1 = spawn 1 in
  Fun.protect
    ~finally:(fun () ->
      Ms.stop n0;
      Ms.stop n1;
      Ms.wait n0;
      Ms.wait n1;
      Co.shutdown co;
      Co.wait co)
  @@ fun () ->
  await "primary and replica in the map" (fun () ->
      match Co.published co with
      | Some sm -> members_in_map sm = 2
      | None -> false);
  (* drop every heartbeat: two perfectly healthy nodes must be
     declared dead - the detector cannot tell loss from death *)
  let plan =
    Fault.make_plan ~label:"beat blackout" (fun p _ ->
        match p with
        | Fault.Heartbeat_loss -> Fault.Reset
        | _ -> Fault.Pass)
  in
  let r =
    Fault.with_plan plan (fun () ->
        await ~timeout:15.0 "false-positive deaths" (fun () ->
            Co.deaths co >= 2))
  in
  check_true "blackout run completed" (r.Fault.outcome = Ok ());
  check_true "heartbeat fault points fired" (r.Fault.points > 0);
  (* beats resume: rh_known = false sends both through a fresh join,
     checksums still match, so healing re-fetches nothing *)
  await "the cluster heals" (fun () ->
      match Co.published co with
      | Some sm ->
        members_in_map sm = 2
        && addr_in_map (Ms.self_addr n0) sm
        && addr_in_map (Ms.self_addr n1) sm
      | None -> false);
  let _, records = Corpus.load ~path:corpus in
  let cc = ok_client "fetch after healing" (Cl.fetch co_addr) in
  Fun.protect ~finally:(fun () -> Cl.close cc) @@ fun () ->
  List.iteri
    (fun i m ->
      check_true "reads after healing"
        (Matrix.equal m (ok_client "nth" (Cl.nth cc i))))
    records

(* A node killed while it indexes a piece it holds comes back with the
   piece intact and its .umrsx torn. Restarted on the same dir, it must
   rebuild the index, re-enter the map and answer reads. *)
let test_torn_index_rebuilt_on_restart () =
  with_tmp_dir @@ fun dir ->
  let corpus = build_corpus dir in
  let co_addr = Wire.Unix_sock (Filename.concat dir "co.sock") in
  let co_cfg =
    { (Co.default_config ~dir:(Filename.concat dir "co") ~corpus ~listen:co_addr)
      with Co.heartbeat = 0.05; miss_limit = 3; shards = 1 }
  in
  let co = ok_server "coordinator" (Co.start co_cfg) in
  let ndir k = Filename.concat dir (Printf.sprintf "n%d" k) in
  let cfg k =
    { (Ms.default_config ~coordinator:co_addr ~dir:(ndir k)
         ~listen:(Wire.Unix_sock (Filename.concat (ndir k) "s.sock")))
      with Ms.heartbeat = 0.05 }
  in
  let live = ref [] in
  let spawn what k =
    let n = ok_server what (Ms.start (cfg k)) in
    live := n :: !live;
    n
  in
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun n -> Ms.stop n; Ms.wait n) !live;
      Co.shutdown co;
      Co.wait co)
  @@ fun () ->
  ignore (spawn "node 0" 0);
  let n1 = spawn "node 1" 1 in
  await "both nodes in the map" (fun () ->
      match Co.published co with Some sm -> members_in_map sm = 2 | None -> false);
  let lo, hi = Option.get (Ms.range n1) in
  live := List.filter (fun n -> n != n1) !live;
  Ms.stop ~leave:false n1;
  Ms.wait n1;
  Unix.truncate (Q.index_path (Ms.piece_path (ndir 1) lo hi)) 10;
  let back = spawn "restart on the same dir" 1 in
  await "the restarted node in the map" (fun () ->
      match Co.published co with
      | Some sm -> members_in_map sm = 2 && addr_in_map (Ms.self_addr back) sm
      | None -> false);
  let _, records = Corpus.load ~path:corpus in
  let c = ok_client "connect" (C.connect ~retries:5 (Ms.self_addr back)) in
  Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
  List.iteri
    (fun i m ->
      check_true "the restarted node answers" (Matrix.equal m (ok_client "nth" (C.nth c i))))
    records

let suite =
  [
    case "shard map round-trips the wire codec" test_map_codec_roundtrip;
    case "validation rejects broken maps" test_validate_rejects_broken_maps;
    case "routing invariants hold over a real corpus" test_routing_invariants;
    case "splitting preserves the corpus exactly" test_split_preserves_the_corpus;
    case "map file round-trips; corruption is detected"
      test_map_file_roundtrip_and_corruption;
    case "cluster answers = single node, every request shape"
      test_differential_cluster_equals_single_node;
    case "replica failover survives losing every primary"
      test_failover_survives_primary_loss;
    case "a stale shard map refreshes transparently"
      test_stale_map_refreshes_transparently;
    case "start failures unwind cleanly" test_cluster_start_failures_leak_nothing;
    case "membership control plane round-trips the wire codec"
      test_membership_wire_roundtrip;
    case "clean_dir sweeps crash leftovers, spares live state"
      test_clean_dir_sweeps_crash_leftovers;
    case "map load errors name the file and the offending field"
      test_map_load_errors_name_path_and_field;
    case "concurrent stale verdicts collapse to one refresh"
      test_refresh_stampede_fetches_once;
    case "join, failover, resharding, catch-up under live reads"
      test_membership_join_failover_reshard_catchup;
    case "heartbeat loss: false-positive failover, then healing"
      test_heartbeat_loss_false_positive_recovery;
    case "a torn index is rebuilt when its node restarts"
      test_torn_index_rebuilt_on_restart;
  ]
