open Umrs_core
open Umrs_graph
module Bitbuf = Umrs_bitcode.Bitbuf

type addr =
  | Unix_sock of string
  | Tcp of string * int

let pp_addr fmt = function
  | Unix_sock path -> Format.fprintf fmt "unix:%s" path
  | Tcp (host, port) -> Format.fprintf fmt "tcp:%s:%d" host port

let addr_to_string a = Format.asprintf "%a" pp_addr a

type shard = {
  sh_lo : int;
  sh_hi : int;
  sh_key : int array;
  sh_primary : addr;
  sh_replicas : addr list;
}

type shard_map = {
  sm_version : int;
  sm_corpus_version : int;
  sm_variant : Umrs_core.Canonical.variant;
  sm_p : int;
  sm_q : int;
  sm_d : int;
  sm_count : int;
  sm_checksum : int64;
  sm_shards : shard array;
}

(* ---------- cluster membership ---------- *)

type member_state =
  | Joining
  | Ready
  | Dead

type member_info = {
  mi_addr : addr;
  mi_shard : int;
  mi_state : member_state;
  mi_in_map : bool;
  mi_primary : bool;
  mi_checksum : int64;
  mi_beat_age : float;
}

type node_cmd =
  | Cmd_acquire of { aq_lo : int; aq_hi : int; aq_donor : addr;
                     aq_map : shard_map option }

type reshard_op =
  | Split of int
  | Merge of int

type request =
  | Ping of int
  | Stats
  | Corpus_info
  | Nth of int
  | Mem of Matrix.t
  | Rank of Matrix.t
  | Range_prefix of int array
  | Cgraph_of of int
  | Evaluate of { scheme : string; graph_name : string; graph : Graph.t }
  | Sleep_ms of int
  | Get_shard_map
  | Join of { jn_addr : addr; jn_ready : bool; jn_checksum : int64 }
  | Leave of addr
  | Heartbeat of { hb_addr : addr; hb_version : int; hb_checksum : int64 }
  | Reshard of reshard_op
  | Handoff_done of { hd_addr : addr; hd_lo : int; hd_hi : int;
                      hd_key : int array; hd_checksum : int64 }
  | Cluster_status

let opcode = function
  | Ping _ -> 0
  | Stats -> 1
  | Corpus_info -> 2
  | Nth _ -> 3
  | Mem _ -> 4
  | Rank _ -> 5
  | Range_prefix _ -> 6
  | Cgraph_of _ -> 7
  | Evaluate _ -> 8
  | Sleep_ms _ -> 9
  | Get_shard_map -> 10
  | Join _ -> 11
  | Leave _ -> 12
  | Heartbeat _ -> 13
  | Reshard _ -> 14
  | Handoff_done _ -> 15
  | Cluster_status -> 16

let opcode_name = function
  | 0 -> "ping"
  | 1 -> "stats"
  | 2 -> "corpus_info"
  | 3 -> "nth"
  | 4 -> "mem"
  | 5 -> "rank"
  | 6 -> "range_prefix"
  | 7 -> "cgraph"
  | 8 -> "evaluate"
  | 9 -> "sleep"
  | 10 -> "shard_map"
  | 11 -> "join"
  | 12 -> "leave"
  | 13 -> "heartbeat"
  | 14 -> "reshard"
  | 15 -> "handoff_done"
  | 16 -> "cluster_status"
  | n -> Printf.sprintf "opcode-%d" n

type server_stats = {
  st_connections : int;
  st_requests : int;
  st_overloaded : int;
  st_timeouts : int;
  st_rejected : int;
  st_cache_hits : int;
  st_cache_misses : int;
  st_queue_depth : int;
  st_queue_capacity : int;
  st_workers : int;
  st_draining : bool;
  (* protocol v2: cache and event-loop health *)
  st_live_conns : int;
  st_cache_evictions : int;
  st_loop_wakeups : int;
  st_queue_hwm : int;
}

type response =
  | R_pong of int
  | R_stats of server_stats
  | R_header of Umrs_store.Corpus.header
  | R_matrix of Matrix.t
  | R_found of bool
  | R_rank of int
  | R_range of int * int
  | R_slice of { sl_version : int; sl_lo : int; sl_hi : int }
  | R_graph of Cgraph.t
  | R_evaluation of Umrs_routing.Scheme.evaluation
  | R_slept of int
  | R_shard_map of shard_map
  | R_joined of { jr_shard : int; jr_lo : int; jr_hi : int; jr_donor : addr;
                  jr_checksum : int64; jr_version : int;
                  jr_map : shard_map option }
  | R_heartbeat of { rh_version : int; rh_known : bool;
                     rh_cmd : node_cmd option }
  | R_status of { cs_version : int; cs_published : bool;
                  cs_members : member_info list }
  | R_accepted of string

type outcome =
  | Reply of response
  | Rejected of string
  | Overloaded
  | Timed_out

(* ---------- field primitives ---------- *)

let u8 b x =
  if x < 0 || x > 0xFF then invalid_arg "Wire: u8 out of range";
  Bitbuf.add_bits b x ~width:8

let u16 b x =
  if x < 0 || x > 0xFFFF then invalid_arg "Wire: u16 out of range";
  Bitbuf.add_bits b x ~width:16

let u32 b x =
  if x < 0 || x > 0xFFFFFFFF then invalid_arg "Wire: u32 out of range";
  Bitbuf.add_bits b x ~width:32

let r8 rd = Bitbuf.read_bits rd ~width:8
let r16 rd = Bitbuf.read_bits rd ~width:16
let r32 rd = Bitbuf.read_bits rd ~width:32

(* 64-bit quantities as two 32-bit halves, high first (add_bits caps
   widths at 62, so a single field cannot carry an int64). *)
let i64 b (x : int64) =
  u32 b (Int64.to_int (Int64.shift_right_logical x 32));
  u32 b (Int64.to_int (Int64.logand x 0xFFFFFFFFL))

let ri64 rd =
  let hi = Int64.of_int (r32 rd) in
  let lo = Int64.of_int (r32 rd) in
  Int64.logor (Int64.shift_left hi 32) lo

(* Non-negative OCaml ints that may exceed 32 bits (memory totals,
   record counts) travel as i64. *)
let int64_of_nonneg name x =
  if x < 0 then invalid_arg (Printf.sprintf "Wire: negative %s" name);
  Int64.of_int x

let rint64 rd name =
  let x = ri64 rd in
  if Int64.compare x 0L < 0 || Int64.compare x (Int64.of_int max_int) > 0 then
    invalid_arg (Printf.sprintf "Wire: %s out of range" name);
  Int64.to_int x

let f64 b x = i64 b (Int64.bits_of_float x)
let rf64 rd = Int64.float_of_bits (ri64 rd)

let str b s =
  u32 b (String.length s);
  String.iter (fun c -> u8 b (Char.code c)) s

let rstr rd =
  let n = r32 rd in
  (* Each character costs 8 bits: bound the allocation by what the
     buffer can actually hold before trusting the length. *)
  if n * 8 > Bitbuf.remaining rd then invalid_arg "Wire: truncated string";
  String.init n (fun _ -> Char.chr (r8 rd))

let wbool b x = Bitbuf.add_bit b x
let rbool rd = Bitbuf.read_bit rd

(* ---------- composite codecs ---------- *)

let enc_matrix b (m : Matrix.t) =
  u16 b m.Matrix.p;
  u16 b m.Matrix.q;
  Array.iter (Array.iter (fun x -> u16 b x)) m.Matrix.entries

let dec_matrix rd =
  let p = r16 rd in
  let q = r16 rd in
  if p < 1 || q < 1 then invalid_arg "Wire: bad matrix dimensions";
  if p * q * 16 > Bitbuf.remaining rd then invalid_arg "Wire: truncated matrix";
  let rows = Array.init p (fun _ -> Array.init q (fun _ -> r16 rd)) in
  Matrix.create_relaxed rows

(* Adjacency rows in port order: the round-trip preserves the local
   port numbering the routing model depends on. *)
let enc_graph b g =
  let n = Graph.order g in
  u32 b n;
  for v = 0 to n - 1 do
    let nb = Graph.neighbors g v in
    u16 b (Array.length nb);
    Array.iter (fun u -> u32 b u) nb
  done

let dec_graph rd =
  let n = r32 rd in
  if n < 1 then invalid_arg "Wire: bad graph order";
  (* Every vertex costs at least a 16-bit degree field: an order the
     payload cannot possibly carry is rejected here, before Array.init
     can allocate n slots off an attacker-controlled u32. *)
  if n * 16 > Bitbuf.remaining rd then invalid_arg "Wire: truncated graph";
  let adj =
    Array.init n (fun _ ->
        let deg = r16 rd in
        if deg * 32 > Bitbuf.remaining rd then
          invalid_arg "Wire: truncated graph";
        Array.init deg (fun _ -> r32 rd))
  in
  Graph.of_adjacency adj

let enc_header b (h : Umrs_store.Corpus.header) =
  u16 b h.Umrs_store.Corpus.version;
  u8 b (match h.Umrs_store.Corpus.variant with
        | Canonical.Full -> 0
        | Canonical.Positional -> 1);
  u16 b h.Umrs_store.Corpus.p;
  u16 b h.Umrs_store.Corpus.q;
  u16 b h.Umrs_store.Corpus.d;
  i64 b (int64_of_nonneg "count" h.Umrs_store.Corpus.count);
  i64 b h.Umrs_store.Corpus.checksum

let dec_header rd : Umrs_store.Corpus.header =
  let version = r16 rd in
  let variant =
    match r8 rd with
    | 0 -> Canonical.Full
    | 1 -> Canonical.Positional
    | v -> invalid_arg (Printf.sprintf "Wire: unknown variant byte %d" v)
  in
  let p = r16 rd in
  let q = r16 rd in
  let d = r16 rd in
  let count = rint64 rd "count" in
  let checksum = ri64 rd in
  { Umrs_store.Corpus.version; variant; p; q; d; count; checksum }

let enc_stats b st =
  u32 b st.st_connections;
  u32 b st.st_requests;
  u32 b st.st_overloaded;
  u32 b st.st_timeouts;
  u32 b st.st_rejected;
  u32 b st.st_cache_hits;
  u32 b st.st_cache_misses;
  u32 b st.st_queue_depth;
  u32 b st.st_queue_capacity;
  u32 b st.st_workers;
  wbool b st.st_draining;
  u32 b st.st_live_conns;
  i64 b (int64_of_nonneg "cache_evictions" st.st_cache_evictions);
  i64 b (int64_of_nonneg "loop_wakeups" st.st_loop_wakeups);
  u32 b st.st_queue_hwm

let dec_stats rd =
  let st_connections = r32 rd in
  let st_requests = r32 rd in
  let st_overloaded = r32 rd in
  let st_timeouts = r32 rd in
  let st_rejected = r32 rd in
  let st_cache_hits = r32 rd in
  let st_cache_misses = r32 rd in
  let st_queue_depth = r32 rd in
  let st_queue_capacity = r32 rd in
  let st_workers = r32 rd in
  let st_draining = rbool rd in
  let st_live_conns = r32 rd in
  let st_cache_evictions = rint64 rd "cache_evictions" in
  let st_loop_wakeups = rint64 rd "loop_wakeups" in
  let st_queue_hwm = r32 rd in
  { st_connections; st_requests; st_overloaded; st_timeouts; st_rejected;
    st_cache_hits; st_cache_misses; st_queue_depth; st_queue_capacity;
    st_workers; st_draining; st_live_conns; st_cache_evictions;
    st_loop_wakeups; st_queue_hwm }

let enc_evaluation b (e : Umrs_routing.Scheme.evaluation) =
  str b e.Umrs_routing.Scheme.scheme_name;
  str b e.Umrs_routing.Scheme.graph_name;
  u32 b e.Umrs_routing.Scheme.order;
  u32 b e.Umrs_routing.Scheme.edges;
  i64 b (int64_of_nonneg "mem_local" e.Umrs_routing.Scheme.mem_local_bits);
  i64 b (int64_of_nonneg "mem_global" e.Umrs_routing.Scheme.mem_global_bits);
  let s = e.Umrs_routing.Scheme.stretch in
  i64 b (int64_of_nonneg "pairs" s.Umrs_routing.Stretch_dist.ds_pairs);
  wbool b s.Umrs_routing.Stretch_dist.ds_exact;
  f64 b s.Umrs_routing.Stretch_dist.ds_mean;
  f64 b s.Umrs_routing.Stretch_dist.ds_p50;
  f64 b s.Umrs_routing.Stretch_dist.ds_p95;
  f64 b s.Umrs_routing.Stretch_dist.ds_p99;
  f64 b s.Umrs_routing.Stretch_dist.ds_max

let dec_evaluation rd : Umrs_routing.Scheme.evaluation =
  let scheme_name = rstr rd in
  let graph_name = rstr rd in
  let order = r32 rd in
  let edges = r32 rd in
  let mem_local_bits = rint64 rd "mem_local" in
  let mem_global_bits = rint64 rd "mem_global" in
  let ds_pairs = rint64 rd "pairs" in
  let ds_exact = rbool rd in
  let ds_mean = rf64 rd in
  let ds_p50 = rf64 rd in
  let ds_p95 = rf64 rd in
  let ds_p99 = rf64 rd in
  let ds_max = rf64 rd in
  { Umrs_routing.Scheme.scheme_name; graph_name; order; edges;
    mem_local_bits; mem_global_bits;
    stretch =
      { Umrs_routing.Stretch_dist.ds_pairs; ds_exact; ds_mean; ds_p50;
        ds_p95; ds_p99; ds_max } }

(* ---------- shard maps ---------- *)

let enc_addr b = function
  | Unix_sock path ->
    u8 b 0;
    str b path
  | Tcp (host, port) ->
    u8 b 1;
    str b host;
    u16 b port

let dec_addr rd =
  match r8 rd with
  | 0 -> Unix_sock (rstr rd)
  | 1 ->
    let host = rstr rd in
    let port = r16 rd in
    Tcp (host, port)
  | t -> invalid_arg (Printf.sprintf "Wire: unknown address tag %d" t)

let enc_shard b sh =
  i64 b (int64_of_nonneg "shard lo" sh.sh_lo);
  i64 b (int64_of_nonneg "shard hi" sh.sh_hi);
  u16 b (Array.length sh.sh_key);
  Array.iter (fun x -> u16 b x) sh.sh_key;
  enc_addr b sh.sh_primary;
  u16 b (List.length sh.sh_replicas);
  List.iter (enc_addr b) sh.sh_replicas

let dec_shard rd =
  let sh_lo = rint64 rd "shard lo" in
  let sh_hi = rint64 rd "shard hi" in
  let nk = r16 rd in
  if nk * 16 > Bitbuf.remaining rd then invalid_arg "Wire: truncated shard key";
  let sh_key = Array.init nk (fun _ -> r16 rd) in
  let sh_primary = dec_addr rd in
  let nr = r16 rd in
  (* An address costs at least a tag byte plus a length word: bound the
     list allocation before trusting the count. *)
  if nr * 40 > Bitbuf.remaining rd then invalid_arg "Wire: truncated replicas";
  let sh_replicas = List.init nr (fun _ -> dec_addr rd) in
  { sh_lo; sh_hi; sh_key; sh_primary; sh_replicas }

let enc_shard_map b sm =
  u32 b sm.sm_version;
  u16 b sm.sm_corpus_version;
  u8 b (match sm.sm_variant with
        | Canonical.Full -> 0
        | Canonical.Positional -> 1);
  u16 b sm.sm_p;
  u16 b sm.sm_q;
  u16 b sm.sm_d;
  i64 b (int64_of_nonneg "count" sm.sm_count);
  i64 b sm.sm_checksum;
  u16 b (Array.length sm.sm_shards);
  Array.iter (enc_shard b) sm.sm_shards

let dec_shard_map rd =
  let sm_version = r32 rd in
  let sm_corpus_version = r16 rd in
  let sm_variant =
    match r8 rd with
    | 0 -> Canonical.Full
    | 1 -> Canonical.Positional
    | v -> invalid_arg (Printf.sprintf "Wire: unknown variant byte %d" v)
  in
  let sm_p = r16 rd in
  let sm_q = r16 rd in
  let sm_d = r16 rd in
  let sm_count = rint64 rd "count" in
  let sm_checksum = ri64 rd in
  let ns = r16 rd in
  (* Each shard carries at minimum two i64 bounds: bound the array
     allocation before trusting the count. *)
  if ns * 128 > Bitbuf.remaining rd then invalid_arg "Wire: truncated shards";
  let sm_shards = Array.init ns (fun _ -> dec_shard rd) in
  { sm_version; sm_corpus_version; sm_variant; sm_p; sm_q; sm_d;
    sm_count; sm_checksum; sm_shards }

let shard_map_to_bytes sm =
  let b = Bitbuf.create () in
  enc_shard_map b sm;
  Bitbuf.to_bytes b

let shard_map_of_bytes bytes =
  let buf = Bitbuf.of_bytes bytes ~len:(8 * Bytes.length bytes) in
  dec_shard_map (Bitbuf.reader buf)

let validate_shard_map sm =
  let n = Array.length sm.sm_shards in
  if n = 0 then Error "shard map has no shards"
  else if sm.sm_shards.(0).sh_lo <> 0 then
    Error "first shard does not start at rank 0"
  else if sm.sm_shards.(n - 1).sh_hi <> sm.sm_count then
    Error "last shard does not end at the corpus count"
  else begin
    let err = ref None in
    let fail msg = if !err = None then err := Some msg in
    Array.iteri
      (fun i sh ->
        if sh.sh_lo >= sh.sh_hi then
          fail (Printf.sprintf "shard %d is empty" i);
        if Array.length sh.sh_key <> sm.sm_p * sm.sm_q then
          fail (Printf.sprintf "shard %d key has wrong arity" i);
        if i > 0 then begin
          let prev = sm.sm_shards.(i - 1) in
          if prev.sh_hi <> sh.sh_lo then
            fail (Printf.sprintf "gap between shards %d and %d" (i - 1) i);
          if compare prev.sh_key sh.sh_key >= 0 then
            fail (Printf.sprintf "shard keys not increasing at %d" i)
        end)
      sm.sm_shards;
    match !err with Some msg -> Error msg | None -> Ok ()
  end

(* ---------- membership codecs ---------- *)

let enc_node_cmd b = function
  | Cmd_acquire { aq_lo; aq_hi; aq_donor; aq_map } ->
    u8 b 0;
    i64 b (int64_of_nonneg "acquire lo" aq_lo);
    i64 b (int64_of_nonneg "acquire hi" aq_hi);
    enc_addr b aq_donor;
    (match aq_map with
    | None -> wbool b false
    | Some m ->
      wbool b true;
      enc_shard_map b m)

let dec_node_cmd rd =
  match r8 rd with
  | 0 ->
    let aq_lo = rint64 rd "acquire lo" in
    let aq_hi = rint64 rd "acquire hi" in
    let aq_donor = dec_addr rd in
    let aq_map = if rbool rd then Some (dec_shard_map rd) else None in
    Cmd_acquire { aq_lo; aq_hi; aq_donor; aq_map }
  | t -> invalid_arg (Printf.sprintf "Wire: unknown node command tag %d" t)

let enc_member_info b mi =
  enc_addr b mi.mi_addr;
  (* Shards are u16-sized; -1 (unassigned) travels as 0 with everything
     else shifted up by one. *)
  u16 b (mi.mi_shard + 1);
  u8 b (match mi.mi_state with Joining -> 0 | Ready -> 1 | Dead -> 2);
  wbool b mi.mi_in_map;
  wbool b mi.mi_primary;
  i64 b mi.mi_checksum;
  f64 b mi.mi_beat_age

let dec_member_info rd =
  let mi_addr = dec_addr rd in
  let mi_shard = r16 rd - 1 in
  let mi_state =
    match r8 rd with
    | 0 -> Joining
    | 1 -> Ready
    | 2 -> Dead
    | s -> invalid_arg (Printf.sprintf "Wire: unknown member state %d" s)
  in
  let mi_in_map = rbool rd in
  let mi_primary = rbool rd in
  let mi_checksum = ri64 rd in
  let mi_beat_age = rf64 rd in
  { mi_addr; mi_shard; mi_state; mi_in_map; mi_primary; mi_checksum;
    mi_beat_age }

let corpus_header_of_map sm : Umrs_store.Corpus.header =
  { Umrs_store.Corpus.version = sm.sm_corpus_version;
    variant = sm.sm_variant; p = sm.sm_p; q = sm.sm_q; d = sm.sm_d;
    count = sm.sm_count; checksum = sm.sm_checksum }

(* ---------- key-range routing ---------- *)

let matrix_key (m : Matrix.t) = Array.concat (Array.to_list m.Matrix.entries)

(* Lexicographic comparison of [prefix] against the first |prefix|
   elements of [key].  A key shorter than the prefix compares as
   smaller once its elements run out. *)
let cmp_prefix prefix key =
  let np = Array.length prefix and nk = Array.length key in
  let rec go i =
    if i >= np then 0
    else if i >= nk then 1
    else
      let c = compare prefix.(i) key.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let route_index sm i =
  if i < 0 || i >= sm.sm_count then
    invalid_arg (Printf.sprintf "Wire: record index %d out of range" i);
  let j = ref 0 in
  Array.iteri (fun k sh -> if i >= sh.sh_lo then j := k) sm.sm_shards;
  !j

let route_key sm key =
  (* Largest shard whose boundary key is <= [key]; shard 0 owns
     everything below the second boundary by construction. *)
  let j = ref 0 in
  Array.iteri
    (fun k sh -> if k > 0 && cmp_prefix sh.sh_key key <= 0 then j := k)
    sm.sm_shards;
  !j

let route_matrix sm m = route_key sm (matrix_key m)

let route_prefix sm prefix =
  (* Records matching [prefix] are contiguous in key order.  They can
     only live in shards a..b where b is the largest shard whose
     boundary key truncated to |prefix| is <= prefix (the anchor: a
     prefix below every boundary belongs to shard 0), and a is the
     largest shard whose truncated boundary key is strictly < prefix
     (every earlier boundary precedes all matches). *)
  let a = ref 0 and b = ref 0 in
  Array.iteri
    (fun k sh ->
      if k > 0 then begin
        let c = cmp_prefix prefix sh.sh_key in
        if c >= 0 then b := k;
        if c > 0 then a := k
      end)
    sm.sm_shards;
  (!a, !b)

(* ---------- stale-shard redirect ---------- *)

(* A shard server that receives a request outside its key range answers
   with a structured rejection carrying its own map version, so a
   client holding an outdated map can refresh and re-route instead of
   surfacing a spurious error. *)
let stale_shard_prefix = "stale shard map: server has version "
let stale_shard_msg ~version = stale_shard_prefix ^ string_of_int version
let stale_shard_reject ~version = Rejected (stale_shard_msg ~version)

let stale_shard_version msg =
  let n = String.length stale_shard_prefix in
  if String.length msg > n && String.sub msg 0 n = stale_shard_prefix then
    int_of_string_opt (String.sub msg n (String.length msg - n))
  else None

(* ---------- hello ---------- *)

let magic = "UMRSSRVC"

(* v2: server_stats gained live-connection, cache-eviction and
   event-loop health fields.  v3: the Get_shard_map request and
   R_shard_map response for cluster routing.  v4: stretch-distribution
   fields in evaluations.  v5: cluster membership — Join/Leave/
   Heartbeat/Reshard/Handoff_done/Cluster_status requests and their
   responses.  v6: an evaluation carries the one stretch summary,
   Stretch_dist.summary (pairs, exact flag, mean, p50, p95, p99, max),
   in place of the worst pair and its route and distance.  The hello
   version is part of the handshake, so mixed-version pairs fail fast
   instead of misparsing a reply. *)
let protocol_version = 6
let hello_bytes = 10

let hello () =
  let b = Bytes.create hello_bytes in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_uint16_le b 8 protocol_version;
  b

let check_hello b =
  if Bytes.length b <> hello_bytes || Bytes.sub_string b 0 8 <> magic then
    Error `Bad_magic
  else
    let v = Bytes.get_uint16_le b 8 in
    if v <> protocol_version then Error (`Bad_version v) else Ok ()

(* ---------- requests ---------- *)

let encode_request ~id ~deadline_ms req =
  let b = Bitbuf.create () in
  u32 b (id land 0xFFFFFFFF);
  u32 b (max 0 deadline_ms land 0xFFFFFFFF);
  u8 b (opcode req);
  (match req with
  | Ping nonce -> u32 b nonce
  | Stats | Corpus_info -> ()
  | Nth i | Cgraph_of i -> u32 b i
  | Mem m | Rank m -> enc_matrix b m
  | Range_prefix prefix ->
    u16 b (Array.length prefix);
    Array.iter (fun x -> u16 b x) prefix
  | Evaluate { scheme; graph_name; graph } ->
    str b scheme;
    str b graph_name;
    enc_graph b graph
  | Sleep_ms ms -> u32 b ms
  | Get_shard_map -> ()
  | Join { jn_addr; jn_ready; jn_checksum } ->
    enc_addr b jn_addr;
    wbool b jn_ready;
    i64 b jn_checksum
  | Leave a -> enc_addr b a
  | Heartbeat { hb_addr; hb_version; hb_checksum } ->
    enc_addr b hb_addr;
    u32 b hb_version;
    i64 b hb_checksum
  | Reshard op ->
    (match op with
    | Split k ->
      u8 b 0;
      u16 b k
    | Merge k ->
      u8 b 1;
      u16 b k)
  | Handoff_done { hd_addr; hd_lo; hd_hi; hd_key; hd_checksum } ->
    enc_addr b hd_addr;
    i64 b (int64_of_nonneg "handoff lo" hd_lo);
    i64 b (int64_of_nonneg "handoff hi" hd_hi);
    u16 b (Array.length hd_key);
    Array.iter (fun x -> u16 b x) hd_key;
    i64 b hd_checksum
  | Cluster_status -> ());
  Bitbuf.to_bytes b

let decode_request bytes =
  let buf = Bitbuf.of_bytes bytes ~len:(8 * Bytes.length bytes) in
  let rd = Bitbuf.reader buf in
  let id = r32 rd in
  let deadline_ms = r32 rd in
  let req =
    match r8 rd with
    | 0 -> Ping (r32 rd)
    | 1 -> Stats
    | 2 -> Corpus_info
    | 3 -> Nth (r32 rd)
    | 4 -> Mem (dec_matrix rd)
    | 5 -> Rank (dec_matrix rd)
    | 6 ->
      let n = r16 rd in
      if n * 16 > Bitbuf.remaining rd then
        invalid_arg "Wire: truncated prefix";
      Range_prefix (Array.init n (fun _ -> r16 rd))
    | 7 -> Cgraph_of (r32 rd)
    | 8 ->
      let scheme = rstr rd in
      let graph_name = rstr rd in
      let graph = dec_graph rd in
      Evaluate { scheme; graph_name; graph }
    | 9 -> Sleep_ms (r32 rd)
    | 10 -> Get_shard_map
    | 11 ->
      let jn_addr = dec_addr rd in
      let jn_ready = rbool rd in
      let jn_checksum = ri64 rd in
      Join { jn_addr; jn_ready; jn_checksum }
    | 12 -> Leave (dec_addr rd)
    | 13 ->
      let hb_addr = dec_addr rd in
      let hb_version = r32 rd in
      let hb_checksum = ri64 rd in
      Heartbeat { hb_addr; hb_version; hb_checksum }
    | 14 ->
      (match r8 rd with
      | 0 -> Reshard (Split (r16 rd))
      | 1 -> Reshard (Merge (r16 rd))
      | t -> invalid_arg (Printf.sprintf "Wire: unknown reshard op %d" t))
    | 15 ->
      let hd_addr = dec_addr rd in
      let hd_lo = rint64 rd "handoff lo" in
      let hd_hi = rint64 rd "handoff hi" in
      let nk = r16 rd in
      if nk * 16 > Bitbuf.remaining rd then
        invalid_arg "Wire: truncated handoff key";
      let hd_key = Array.init nk (fun _ -> r16 rd) in
      let hd_checksum = ri64 rd in
      Handoff_done { hd_addr; hd_lo; hd_hi; hd_key; hd_checksum }
    | 16 -> Cluster_status
    | op -> invalid_arg (Printf.sprintf "Wire: unknown opcode %d" op)
  in
  (id, deadline_ms, req)

(* ---------- outcomes ---------- *)

let response_tag = function
  | R_pong _ -> 0
  | R_stats _ -> 1
  | R_header _ -> 2
  | R_matrix _ -> 3
  | R_found _ -> 4
  | R_rank _ -> 5
  | R_range _ -> 6
  | R_graph _ -> 7
  | R_evaluation _ -> 8
  | R_slept _ -> 9
  | R_shard_map _ -> 10
  | R_joined _ -> 11
  | R_heartbeat _ -> 12
  | R_status _ -> 13
  | R_accepted _ -> 14
  | R_slice _ -> 15

let encode_outcome ~id outcome =
  let b = Bitbuf.create () in
  u32 b (id land 0xFFFFFFFF);
  (match outcome with
  | Reply r ->
    u8 b 0;
    u8 b (response_tag r);
    (match r with
    | R_pong nonce -> u32 b nonce
    | R_stats st -> enc_stats b st
    | R_header h -> enc_header b h
    | R_matrix m -> enc_matrix b m
    | R_found found -> wbool b found
    | R_rank r -> i64 b (int64_of_nonneg "rank" r)
    | R_range (lo, hi) ->
      i64 b (int64_of_nonneg "range lo" lo);
      i64 b (int64_of_nonneg "range hi" hi)
    | R_slice { sl_version; sl_lo; sl_hi } ->
      u32 b sl_version;
      i64 b (int64_of_nonneg "slice lo" sl_lo);
      i64 b (int64_of_nonneg "slice hi" sl_hi)
    | R_graph t -> enc_matrix b t.Cgraph.matrix
    | R_evaluation e -> enc_evaluation b e
    | R_slept ms -> u32 b ms
    | R_shard_map sm -> enc_shard_map b sm
    | R_joined { jr_shard; jr_lo; jr_hi; jr_donor; jr_checksum; jr_version;
                 jr_map } ->
      u16 b jr_shard;
      i64 b (int64_of_nonneg "joined lo" jr_lo);
      i64 b (int64_of_nonneg "joined hi" jr_hi);
      enc_addr b jr_donor;
      i64 b jr_checksum;
      u32 b jr_version;
      (match jr_map with
      | None -> wbool b false
      | Some m ->
        wbool b true;
        enc_shard_map b m)
    | R_heartbeat { rh_version; rh_known; rh_cmd } ->
      u32 b rh_version;
      wbool b rh_known;
      (match rh_cmd with
      | None -> wbool b false
      | Some cmd ->
        wbool b true;
        enc_node_cmd b cmd)
    | R_status { cs_version; cs_published; cs_members } ->
      u32 b cs_version;
      wbool b cs_published;
      u16 b (List.length cs_members);
      List.iter (enc_member_info b) cs_members
    | R_accepted msg -> str b msg)
  | Rejected msg ->
    u8 b 1;
    str b msg
  | Overloaded -> u8 b 2
  | Timed_out -> u8 b 3);
  Bitbuf.to_bytes b

let decode_outcome bytes =
  let buf = Bitbuf.of_bytes bytes ~len:(8 * Bytes.length bytes) in
  let rd = Bitbuf.reader buf in
  let id = r32 rd in
  let outcome =
    match r8 rd with
    | 0 ->
      Reply
        (match r8 rd with
        | 0 -> R_pong (r32 rd)
        | 1 -> R_stats (dec_stats rd)
        | 2 -> R_header (dec_header rd)
        | 3 -> R_matrix (dec_matrix rd)
        | 4 -> R_found (rbool rd)
        | 5 -> R_rank (rint64 rd "rank")
        | 6 ->
          let lo = rint64 rd "range lo" in
          let hi = rint64 rd "range hi" in
          R_range (lo, hi)
        | 7 ->
          (* The matrix fully determines the Lemma-2 graph; rebuild it
             locally. Rows arrive normalized (Matrix.create checks). *)
          let m = dec_matrix rd in
          R_graph (Cgraph.of_matrix (Matrix.create m.Matrix.entries))
        | 8 -> R_evaluation (dec_evaluation rd)
        | 9 -> R_slept (r32 rd)
        | 10 -> R_shard_map (dec_shard_map rd)
        | 11 ->
          let jr_shard = r16 rd in
          let jr_lo = rint64 rd "joined lo" in
          let jr_hi = rint64 rd "joined hi" in
          let jr_donor = dec_addr rd in
          let jr_checksum = ri64 rd in
          let jr_version = r32 rd in
          let jr_map = if rbool rd then Some (dec_shard_map rd) else None in
          R_joined { jr_shard; jr_lo; jr_hi; jr_donor; jr_checksum;
                     jr_version; jr_map }
        | 12 ->
          let rh_version = r32 rd in
          let rh_known = rbool rd in
          let rh_cmd = if rbool rd then Some (dec_node_cmd rd) else None in
          R_heartbeat { rh_version; rh_known; rh_cmd }
        | 13 ->
          let cs_version = r32 rd in
          let cs_published = rbool rd in
          let nm = r16 rd in
          (* A member entry costs at least an address plus two i64s:
             bound the list allocation before trusting the count. *)
          if nm * 160 > Bitbuf.remaining rd then
            invalid_arg "Wire: truncated members";
          let cs_members = List.init nm (fun _ -> dec_member_info rd) in
          R_status { cs_version; cs_published; cs_members }
        | 14 -> R_accepted (rstr rd)
        | 15 ->
          let sl_version = r32 rd in
          let sl_lo = rint64 rd "slice lo" in
          let sl_hi = rint64 rd "slice hi" in
          R_slice { sl_version; sl_lo; sl_hi }
        | tag -> invalid_arg (Printf.sprintf "Wire: unknown response tag %d" tag))
    | 1 -> Rejected (rstr rd)
    | 2 -> Overloaded
    | 3 -> Timed_out
    | s -> invalid_arg (Printf.sprintf "Wire: unknown status byte %d" s)
  in
  (id, outcome)

(* ---------- frames ---------- *)

let default_max_frame = 16 * 1024 * 1024

let write_frame ?(flush = true) oc payload =
  Umrs_fault.Io.on_sock_write ();
  let n = Bytes.length payload in
  let hdr = Bytes.create 4 in
  Bytes.set_int32_le hdr 0 (Int32.of_int n);
  output_bytes oc hdr;
  output_bytes oc payload;
  if flush then Stdlib.flush oc

let read_frame ?(max_bytes = default_max_frame) ic =
  Umrs_fault.Io.on_sock_read ();
  let hdr = Bytes.create 4 in
  match really_input ic hdr 0 4 with
  | exception End_of_file -> None
  | () ->
    let n = Int32.to_int (Bytes.get_int32_le hdr 0) in
    if n < 0 || n > max_bytes then
      invalid_arg (Printf.sprintf "Wire: frame length %d out of bounds" n);
    let payload = Bytes.create n in
    really_input ic payload 0 n;
    Some payload

(* ---------- digests ---------- *)

let graph_key g =
  let b = Bitbuf.create () in
  enc_graph b g;
  Bytes.to_string (Bitbuf.to_bytes b)

let graph_digest g =
  Umrs_store.Corpus.fnv64 Umrs_store.Corpus.fnv64_seed
    (Bytes.of_string (graph_key g))
