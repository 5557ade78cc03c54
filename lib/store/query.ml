open Umrs_core

type error =
  | Io of string
  | Malformed of string
  | Mismatch of string

let pp_error fmt = function
  | Io m -> Format.fprintf fmt "io error: %s" m
  | Malformed m -> Format.fprintf fmt "malformed: %s" m
  | Mismatch m -> Format.fprintf fmt "mismatch: %s" m

let error_to_string e = Format.asprintf "%a" pp_error e

(* Internal control flow: every validation failure in [build]/[open_]
   funnels through [fail] and is turned into [Error] at the boundary,
   so no file content can ever escape as an exception. *)
exception Fail of error

let fail e = raise (Fail e)
let failf kind fmt = Printf.ksprintf (fun s -> fail (kind s)) fmt

let guard_result f =
  match f () with
  | v -> Ok v
  | exception Fail e -> Error e
  | exception Sys_error m -> Error (Io m)

type meta = {
  x_version : int;
  x_variant : Canonical.variant;
  x_p : int;
  x_q : int;
  x_d : int;
  x_count : int;
  x_corpus_checksum : int64;
  x_stride : int;
  x_samples : int;
  x_checksum : int64;
}

let magic = "UMRSXIDX"
let current_version = 1
let header_bytes = 56
let default_stride = 64
let index_path corpus = corpus ^ ".umrsx"

let variant_byte = function Canonical.Full -> 0 | Canonical.Positional -> 1

let sample_count ~count ~stride =
  if count = 0 then 0 else (count + stride - 1) / stride

let header_image m =
  let b = Bytes.make header_bytes '\000' in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_uint16_le b 8 m.x_version;
  Bytes.set_uint8 b 10 (variant_byte m.x_variant);
  Bytes.set_uint16_le b 12 m.x_p;
  Bytes.set_uint16_le b 14 m.x_q;
  Bytes.set_uint16_le b 16 m.x_d;
  Bytes.set_int64_le b 20 (Int64.of_int m.x_count);
  Bytes.set_int64_le b 28 m.x_corpus_checksum;
  Bytes.set_int32_le b 36 (Int32.of_int m.x_stride);
  Bytes.set_int32_le b 40 (Int32.of_int m.x_samples);
  Bytes.set_int64_le b 44 m.x_checksum;
  b

let header_of_image b =
  if Bytes.sub_string b 0 8 <> magic then
    fail (Malformed "Query: bad index magic");
  let x_version = Bytes.get_uint16_le b 8 in
  if x_version <> current_version then
    failf (fun s -> Malformed s) "Query: unsupported index version %d" x_version;
  let x_variant =
    match Bytes.get_uint8 b 10 with
    | 0 -> Canonical.Full
    | 1 -> Canonical.Positional
    | v -> failf (fun s -> Malformed s) "Query: unknown variant byte %d" v
  in
  let x_p = Bytes.get_uint16_le b 12 in
  let x_q = Bytes.get_uint16_le b 14 in
  let x_d = Bytes.get_uint16_le b 16 in
  if x_p < 1 || x_q < 1 || x_d < 1 then
    fail (Malformed "Query: bad index dimensions");
  let x_count = Int64.to_int (Bytes.get_int64_le b 20) in
  if x_count < 0 then fail (Malformed "Query: bad index count");
  let x_corpus_checksum = Bytes.get_int64_le b 28 in
  let x_stride = Int32.to_int (Bytes.get_int32_le b 36) in
  if x_stride < 1 then fail (Malformed "Query: bad index stride");
  let x_samples = Int32.to_int (Bytes.get_int32_le b 40) in
  if x_samples < 0 then fail (Malformed "Query: bad index sample count");
  let x_checksum = Bytes.get_int64_le b 44 in
  { x_version; x_variant; x_p; x_q; x_d; x_count; x_corpus_checksum;
    x_stride; x_samples; x_checksum }

(* Checksum of the whole index: header image with the checksum field
   zeroed, then the raw sample payload. Covering the header closes the
   corpus format's blind spot where reserved/metadata bytes could be
   flipped undetected. *)
let index_checksum_raw header payload =
  let image = Bytes.copy header in
  Bytes.set_int64_le image 44 0L;
  Corpus.fnv64 (Corpus.fnv64 Corpus.fnv64_seed image) payload

let index_checksum m payload =
  index_checksum_raw (header_image { m with x_checksum = 0L }) payload

(* ---------- corpus-side plumbing ---------- *)

(* Record [i] starts at this byte of the corpus file. *)
let record_offset ~rec_bytes i = Corpus.header_bytes + (i * rec_bytes)

(* Validate that the corpus file's size is exactly what its header
   implies (division form: immune to overflow from corrupt counts).
   This is what makes every later [seek_in] provably in-bounds. *)
let check_corpus_size ~(h : Corpus.header) ~rec_bytes ~file_bytes =
  let avail = file_bytes - Corpus.header_bytes in
  let consistent =
    if avail < 0 then false
    else if rec_bytes = 0 then avail = 0 && h.Corpus.count <= 1
    else
      avail mod rec_bytes = 0 && avail / rec_bytes = h.Corpus.count
  in
  if not consistent then
    fail (Malformed "Query: corpus size inconsistent with its header")

let with_in_bin path f =
  let ic = try open_in_bin path with Sys_error m -> fail (Io m) in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> f ic)

let corpus_header path =
  match Corpus.info ~path with
  | h -> h
  | exception Sys_error m -> fail (Io m)
  | exception Invalid_argument m -> fail (Malformed m)

(* ---------- build ---------- *)

let build ~corpus ?(stride = default_stride) ?out () =
  if stride < 1 then invalid_arg "Query.build: stride must be >= 1";
  let out = Option.value out ~default:(index_path corpus) in
  guard_result @@ fun () ->
  let h = corpus_header corpus in
  let p = h.Corpus.p and q = h.Corpus.q and d = h.Corpus.d in
  let rec_bytes = Corpus.Record.bytes ~p ~q ~d in
  with_in_bin corpus @@ fun ic ->
  check_corpus_size ~h ~rec_bytes ~file_bytes:(in_channel_length ic);
  seek_in ic Corpus.header_bytes;
  let buf = Bytes.create rec_bytes in
  let checksum = ref Corpus.fnv64_seed in
  let prev = ref None in
  let rev_samples = ref [] in
  for i = 0 to h.Corpus.count - 1 do
    really_input ic buf 0 rec_bytes;
    checksum := Corpus.fnv64 !checksum buf;
    (match Corpus.Record.decode ~p ~q ~d ~variant:h.Corpus.variant buf with
    | m ->
      (match !prev with
      | Some pm when Matrix.compare_lex pm m >= 0 ->
        failf (fun s -> Malformed s)
          "Query: corpus record %d not in strictly increasing order" i
      | _ -> ());
      prev := Some m
    | exception Invalid_argument msg ->
      failf (fun s -> Malformed s) "Query: corpus record %d undecodable: %s" i
        msg);
    if i mod stride = 0 then rev_samples := Bytes.copy buf :: !rev_samples
  done;
  if !checksum <> h.Corpus.checksum then
    fail (Malformed "Query: corpus checksum mismatch");
  let samples = Array.of_list (List.rev !rev_samples) in
  let s = Array.length samples in
  assert (s = sample_count ~count:h.Corpus.count ~stride);
  let payload = Bytes.create (s * (8 + rec_bytes)) in
  Array.iteri
    (fun i key ->
      let pos = i * (8 + rec_bytes) in
      Bytes.set_int64_le payload pos
        (Int64.of_int (8 * record_offset ~rec_bytes (i * stride)));
      Bytes.blit key 0 payload (pos + 8) rec_bytes)
    samples;
  let m =
    { x_version = current_version; x_variant = h.Corpus.variant;
      x_p = p; x_q = q; x_d = d; x_count = h.Corpus.count;
      x_corpus_checksum = h.Corpus.checksum; x_stride = stride;
      x_samples = s; x_checksum = 0L }
  in
  let m = { m with x_checksum = index_checksum m payload } in
  (* atomic, so a crash mid-write leaves no torn index; a [Sys_error]
     becomes [Io] *)
  Umrs_fault.Io.atomic_write ~path:out (fun b ->
      Buffer.add_bytes b (header_image m);
      Buffer.add_bytes b payload);
  m

(* ---------- open ---------- *)

(* Per-domain query state: a record source plus reusable buffers, so
   one decoder's scratch is shared across a whole batch slice without
   crossing domains.  A [Chan] source is a private buffered channel
   (seek + read per block); a [Map] source shares the handle's single
   read-only mapping — records come out of the page cache with one
   memcpy and no syscalls, and cursors cost nothing to open. *)
type src =
  | Chan of in_channel
  | Map of Mmap.t

type cursor = {
  k_src : src;
  k_rec : Bytes.t;    (* one record *)
  k_block : Bytes.t;  (* up to [stride] records, for block scans *)
}

type t = {
  t_corpus : string;
  t_header : Corpus.header;
  t_meta : meta;
  t_rec_bytes : int;
  t_width : int;              (* bits per entry *)
  t_keys : Matrix.t array;    (* decoded sample keys, records [i * stride] *)
  t_map : Mmap.t option;      (* corpus mapping, when opened ~mmap:true *)
  t_cursor : cursor;
  mutable t_closed : bool;
}

(* A block scan touches at most [min stride count] records, so the
   block buffer is sized by that — an index whose (u32) stride field is
   absurd cannot force a giant allocation. And if an allocation fails
   anyway, the just-opened descriptor must not leak: the construction
   is protected. *)
let make_cursor ~corpus ~map ~rec_bytes ~stride ~count =
  let k_src =
    match map with
    | Some m -> Map m
    | None -> Chan (open_in_bin corpus)
  in
  match
    let block_recs = min stride (max count 1) in
    { k_src; k_rec = Bytes.create rec_bytes;
      k_block = Bytes.create (block_recs * rec_bytes) }
  with
  | c -> c
  | exception e ->
    (match k_src with Chan ic -> close_in_noerr ic | Map _ -> ());
    raise e

let open_cursor t =
  make_cursor ~corpus:t.t_corpus ~map:t.t_map ~rec_bytes:t.t_rec_bytes
    ~stride:t.t_meta.x_stride ~count:t.t_meta.x_count

let close_cursor c =
  match c.k_src with Chan ic -> close_in_noerr ic | Map _ -> ()

let open_ ~corpus ?index ?(mmap = false) () =
  let index = Option.value index ~default:(index_path corpus) in
  guard_result @@ fun () ->
  let h = corpus_header corpus in
  let p = h.Corpus.p and q = h.Corpus.q and d = h.Corpus.d in
  let rec_bytes = Corpus.Record.bytes ~p ~q ~d in
  with_in_bin corpus (fun ic ->
      check_corpus_size ~h ~rec_bytes ~file_bytes:(in_channel_length ic));
  (* The corpus mapping is created before the index is parsed so the
     size validation above and the binding checks below all apply to
     the same inode generation we will serve from. *)
  let map =
    if not mmap then None
    else
      match Mmap.map corpus with
      | m -> Some m
      | exception Unix.Unix_error (e, _, _) -> fail (Io (Unix.error_message e))
  in
  let read_index_image () =
    if mmap then begin
      (* parse the sidecar from a mapping too: same read path, and the
         pages are shared with every other opener of this index *)
      match Mmap.map index with
      | im -> (Mmap.length im, fun off len -> Mmap.sub im ~off ~len)
      | exception Unix.Unix_error (e, _, _) -> fail (Io (Unix.error_message e))
    end
    else
      let image =
        with_in_bin index @@ fun ic ->
        let n = in_channel_length ic in
        let b = Bytes.create n in
        really_input ic b 0 n;
        b
      in
      (Bytes.length image, fun off len -> Bytes.sub image off len)
  in
  let m, payload =
    let file_bytes, slice = read_index_image () in
    if file_bytes < header_bytes then
      fail (Malformed "Query: truncated index header");
    let hb = slice 0 header_bytes in
    let m = header_of_image hb in
    let x_rec_bytes =
      Corpus.Record.bytes ~p:m.x_p ~q:m.x_q ~d:m.x_d
    in
    (* Payload size check in division form (overflow-proof), against
       the index's own header — internal consistency before binding. *)
    let payload_bytes = file_bytes - header_bytes in
    let entry = 8 + x_rec_bytes in
    if
      (m.x_samples = 0 && payload_bytes <> 0)
      || (m.x_samples > 0
          && (payload_bytes mod m.x_samples <> 0
             || payload_bytes / m.x_samples <> entry))
    then fail (Malformed "Query: index size inconsistent with its header");
    let payload = slice header_bytes payload_bytes in
    (* Over the raw on-disk header bytes, NOT a re-serialized image:
       re-serializing would zero the reserved bytes and let damage
       there slip through. *)
    if index_checksum_raw hb payload <> m.x_checksum then
      fail (Malformed "Query: index checksum mismatch");
    (m, payload)
  in
  (* Binding: a well-formed index must describe THIS corpus. *)
  if
    m.x_p <> p || m.x_q <> q || m.x_d <> d
    || m.x_variant <> h.Corpus.variant
  then fail (Mismatch "Query: index instance differs from the corpus");
  if m.x_count <> h.Corpus.count then
    fail (Mismatch "Query: index record count differs from the corpus");
  if m.x_corpus_checksum <> h.Corpus.checksum then
    fail (Mismatch "Query: index was built for a different corpus (checksum)");
  if m.x_samples <> sample_count ~count:m.x_count ~stride:m.x_stride then
    fail (Malformed "Query: index sample count does not match count/stride");
  let keys =
    Array.init m.x_samples (fun i ->
        let pos = i * (8 + rec_bytes) in
        let off = Bytes.get_int64_le payload pos in
        let expect = 8 * record_offset ~rec_bytes (i * m.x_stride) in
        if off <> Int64.of_int expect then
          failf (fun s -> Malformed s)
            "Query: sample %d has offset %Ld, expected %d" i off expect;
        match
          Corpus.Record.decode ~p ~q ~d ~variant:h.Corpus.variant
            (Bytes.sub payload (pos + 8) rec_bytes)
        with
        | key -> key
        | exception Invalid_argument msg ->
          failf (fun s -> Malformed s) "Query: sample %d undecodable: %s" i msg)
  in
  Array.iteri
    (fun i key ->
      if i > 0 && Matrix.compare_lex keys.(i - 1) key >= 0 then
        failf (fun s -> Malformed s) "Query: sample keys not strictly sorted at %d" i)
    keys;
  let t =
    { t_corpus = corpus; t_header = h; t_meta = m; t_rec_bytes = rec_bytes;
      t_width = Umrs_bitcode.Codes.bits_needed (d - 1); t_keys = keys;
      t_map = map;
      t_cursor =
        make_cursor ~corpus ~map ~rec_bytes ~stride:m.x_stride ~count:m.x_count;
      t_closed = false }
  in
  t

let close t =
  if not t.t_closed then begin
    t.t_closed <- true;
    close_cursor t.t_cursor
  end

let header t = t.t_header
let meta t = t.t_meta

let check_open t = if t.t_closed then invalid_arg "Query: handle is closed"

(* ---------- point queries ---------- *)

let read_records_into t c ~lo ~n buf =
  let off = record_offset ~rec_bytes:t.t_rec_bytes lo in
  let len = n * t.t_rec_bytes in
  match c.k_src with
  | Chan ic -> (
    seek_in ic off;
    try really_input ic buf 0 len
    with End_of_file -> invalid_arg "Query: corpus changed on disk")
  | Map m -> (
    try Mmap.blit_to_bytes m ~src_off:off buf ~dst_off:0 ~len
    with Invalid_argument _ -> invalid_arg "Query: corpus changed on disk")

let nth_with t c i =
  if i < 0 || i >= t.t_header.Corpus.count then
    invalid_arg "Query.nth: record index out of range";
  read_records_into t c ~lo:i ~n:1 c.k_rec;
  Corpus.Record.decode ~p:t.t_header.Corpus.p ~q:t.t_header.Corpus.q
    ~d:t.t_header.Corpus.d ~variant:t.t_header.Corpus.variant c.k_rec

(* Compare the [nfields] fields at the reader position against
   [target k], without materializing a matrix. *)
let compare_fields rd ~width ~nfields target =
  let res = ref 0 in
  (try
     for k = 0 to nfields - 1 do
       let x = 1 + Umrs_bitcode.Bitbuf.read_bits rd ~width in
       let y = target k in
       if x <> y then begin
         res := (if x < y then -1 else 1);
         raise Exit
       end
     done
   with Exit -> ());
  !res

(* Generic positional search. [cmp_key key] and [cmp_rec rd] compare a
   sample key / an encoded record against the target (negative when
   the record sorts below it). Returns the index of the first record
   whose comparison is [>= 0] ([> 0] when [strict]), plus whether that
   record compares equal — [count, false] when there is none.
   Touches the file for at most [stride - 1] records, read as one
   contiguous block and decoded through a single seekable reader. *)
let search t c ~cmp_key ~cmp_rec ~strict =
  let count = t.t_header.Corpus.count in
  if count = 0 then (0, false)
  else begin
    let stride = t.t_meta.x_stride in
    let s = Array.length t.t_keys in
    let pred v = if strict then v > 0 else v >= 0 in
    let lo = ref 0 and hi = ref s in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if pred (cmp_key t.t_keys.(mid)) then hi := mid else lo := mid + 1
    done;
    let sj = !lo in
    if sj = 0 then (0, cmp_key t.t_keys.(0) = 0)
    else begin
      let block_lo = (sj - 1) * stride in
      let block_hi = if sj < s then sj * stride else count in
      let n = block_hi - block_lo - 1 in
      let found = ref None in
      if n > 0 then begin
        read_records_into t c ~lo:(block_lo + 1) ~n c.k_block;
        let bits =
          Umrs_bitcode.Bitbuf.of_bytes c.k_block ~len:(n * t.t_rec_bytes * 8)
        in
        let rd = Umrs_bitcode.Bitbuf.reader bits in
        let r = ref 0 in
        while !found = None && !r < n do
          Umrs_bitcode.Bitbuf.seek rd (!r * t.t_rec_bytes * 8);
          let v = cmp_rec rd in
          if pred v then found := Some (block_lo + 1 + !r, v = 0);
          incr r
        done
      end;
      match !found with
      | Some hit -> hit
      | None ->
        if sj < s then (block_hi, cmp_key t.t_keys.(sj) = 0)
        else (count, false)
    end
  end

let check_shape t m =
  let p, q = Matrix.dims m in
  if p <> t.t_header.Corpus.p || q <> t.t_header.Corpus.q then
    invalid_arg "Query: matrix shape differs from the corpus instance"

let locate_with t c m =
  check_shape t m;
  let q = t.t_header.Corpus.q in
  search t c
    ~cmp_key:(fun key -> Matrix.compare_lex key m)
    ~cmp_rec:(fun rd ->
      compare_fields rd ~width:t.t_width
        ~nfields:(t.t_header.Corpus.p * q)
        (fun k -> Matrix.get m (k / q) (k mod q)))
    ~strict:false

let rank_with t c m = fst (locate_with t c m)
let mem_with t c m = snd (locate_with t c m)

let range_prefix_with t c prefix =
  let pq = t.t_header.Corpus.p * t.t_header.Corpus.q in
  if Array.length prefix > pq then
    invalid_arg "Query.range_prefix: prefix longer than p*q";
  let nfields = Array.length prefix in
  let cmp_key key = -Matrix.compare_lex_prefix prefix key in
  let cmp_rec rd =
    compare_fields rd ~width:t.t_width ~nfields (fun k -> prefix.(k))
  in
  let lo, _ = search t c ~cmp_key ~cmp_rec ~strict:false in
  let hi, _ = search t c ~cmp_key ~cmp_rec ~strict:true in
  (lo, hi)

let cgraph_with t c i =
  let m = nth_with t c i in
  let q = t.t_header.Corpus.q in
  let rows =
    Array.init (t.t_header.Corpus.p) (fun r ->
        Canonical.normalize_row (Array.init q (Matrix.get m r)))
  in
  Cgraph.of_matrix (Matrix.create rows)

let nth t i = check_open t; nth_with t t.t_cursor i
let mem t m = check_open t; mem_with t t.t_cursor m
let rank t m = check_open t; rank_with t t.t_cursor m
let range_prefix t prefix = check_open t; range_prefix_with t t.t_cursor prefix
let cgraph t i = check_open t; cgraph_with t t.t_cursor i

(* ---------- batched queries ---------- *)

type request =
  | Nth of int
  | Mem of Matrix.t
  | Rank of Matrix.t
  | Range_prefix of int array
  | Cgraph_of of int

type response =
  | R_matrix of Matrix.t
  | R_found of bool
  | R_rank of int
  | R_range of int * int
  | R_graph of Cgraph.t

let batches_counter = Telemetry.counter "query.batches"
let requests_counter = Telemetry.counter "query.requests"

(* In-memory estimate of where a request will land in the file, used
   only to sort a batch so each domain's slice reads forward. *)
let sample_floor t cmp_key =
  let s = Array.length t.t_keys in
  let lo = ref 0 and hi = ref s in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp_key t.t_keys.(mid) >= 0 then hi := mid else lo := mid + 1
  done;
  max 0 ((!lo - 1) * t.t_meta.x_stride)

let estimate_position t = function
  | Nth i | Cgraph_of i -> i
  | Mem m | Rank m -> sample_floor t (fun key -> Matrix.compare_lex key m)
  | Range_prefix prefix ->
    sample_floor t (fun key -> -Matrix.compare_lex_prefix prefix key)

let validate_request t i = function
  | Nth r | Cgraph_of r ->
    if r < 0 || r >= t.t_header.Corpus.count then
      invalid_arg
        (Printf.sprintf "Query.batch: request %d: record %d out of range" i r)
  | Mem m | Rank m ->
    (try check_shape t m
     with Invalid_argument _ ->
       invalid_arg
         (Printf.sprintf "Query.batch: request %d: matrix shape mismatch" i))
  | Range_prefix prefix ->
    if Array.length prefix > t.t_header.Corpus.p * t.t_header.Corpus.q then
      invalid_arg
        (Printf.sprintf "Query.batch: request %d: prefix longer than p*q" i)

let exec t c = function
  | Nth i -> R_matrix (nth_with t c i)
  | Mem m -> R_found (mem_with t c m)
  | Rank m -> R_rank (rank_with t c m)
  | Range_prefix prefix ->
    let lo, hi = range_prefix_with t c prefix in
    R_range (lo, hi)
  | Cgraph_of i -> R_graph (cgraph_with t c i)

let batch ?domains t requests =
  check_open t;
  let n = Array.length requests in
  Array.iteri (validate_request t) requests;
  let t0 = Umrs_bench.Clock.now_ns () in
  let order = Array.init n Fun.id in
  let pos = Array.map (estimate_position t) requests in
  Array.sort
    (fun a b ->
      let c = compare pos.(a) pos.(b) in
      if c <> 0 then c else compare a b)
    order;
  let sorted =
    Umrs_graph.Parallel.map_range_with ?domains
      ~init:(fun () -> open_cursor t)
      ~finally:close_cursor n
      (fun c j -> exec t c requests.(order.(j)))
  in
  let responses = Array.make n (R_rank 0) in
  Array.iteri (fun j resp -> responses.(order.(j)) <- resp) sorted;
  Telemetry.add batches_counter 1;
  Telemetry.add requests_counter n;
  if Telemetry.enabled () then
    Telemetry.emit "query.batch"
      [ ("requests", Telemetry.Int n);
        ("seconds", Telemetry.Float (Umrs_bench.Clock.since_s t0)) ];
  responses
