open Umrs_core
module Io = Umrs_fault.Io

type manifest = {
  m_p : int;
  m_q : int;
  m_d : int;
  m_variant : Canonical.variant;
  m_total : int;
  m_checkpoint_every : int;
  m_ranges : (int * int) array;
}

let manifest_name = "manifest"
let shard_name i = Printf.sprintf "shard_%d.ckpt" i

let rec init_dir ~dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir && not (Sys.file_exists parent) then init_dir ~dir:parent;
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end
  else if not (Sys.is_directory dir) then
    invalid_arg (Printf.sprintf "Checkpoint: %s exists and is not a directory" dir)

let variant_name = function
  | Canonical.Full -> "full"
  | Canonical.Positional -> "positional"

let variant_of_name = function
  | "full" -> Canonical.Full
  | "positional" -> Canonical.Positional
  | s -> invalid_arg (Printf.sprintf "Checkpoint: unknown variant %S" s)

(* ---------- manifest (line-oriented text) ---------- *)

let manifest_exists ~dir = Sys.file_exists (Filename.concat dir manifest_name)

let save_manifest ~dir m =
  init_dir ~dir;
  Io.atomic_write ~path:(Filename.concat dir manifest_name) (fun b ->
      Buffer.add_string b "umrs-corpus-checkpoint v1\n";
      Printf.bprintf b "p=%d q=%d d=%d variant=%s total=%d every=%d shards=%d\n"
        m.m_p m.m_q m.m_d (variant_name m.m_variant) m.m_total
        m.m_checkpoint_every (Array.length m.m_ranges);
      Array.iteri
        (fun i (lo, hi) -> Printf.bprintf b "shard %d %d %d\n" i lo hi)
        m.m_ranges)

let load_manifest ~dir =
  let path = Filename.concat dir manifest_name in
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let fail fmt =
        Printf.ksprintf
          (fun s -> invalid_arg (Printf.sprintf "Checkpoint manifest %s: %s" path s))
          fmt
      in
      let line () = try input_line ic with End_of_file -> fail "truncated" in
      if line () <> "umrs-corpus-checkpoint v1" then fail "bad magic line";
      let params = line () in
      let p, q, d, variant, total, every, shards =
        try
          Scanf.sscanf params "p=%d q=%d d=%d variant=%s@ total=%d every=%d shards=%d"
            (fun p q d v t e s -> (p, q, d, variant_of_name v, t, e, s))
        with Scanf.Scan_failure _ | Failure _ | End_of_file ->
          fail "bad parameter line %S" params
      in
      if shards < 1 then fail "bad shard count %d" shards;
      let ranges =
        Array.init shards (fun i ->
            let l = line () in
            try
              Scanf.sscanf l "shard %d %d %d" (fun j lo hi ->
                  if j <> i || lo < 0 || hi < lo then fail "bad shard line %S" l;
                  (lo, hi))
            with Scanf.Scan_failure _ | Failure _ | End_of_file ->
              fail "bad shard line %S" l)
      in
      { m_p = p; m_q = q; m_d = d; m_variant = variant; m_total = total;
        m_checkpoint_every = every; m_ranges = ranges })

let check_manifest m ~p ~q ~d ~variant ~total =
  let mismatch name want got =
    invalid_arg
      (Printf.sprintf
         "Checkpoint: --resume parameter mismatch: %s is %s in the checkpoint \
          but %s was requested"
         name want got)
  in
  if m.m_p <> p then mismatch "p" (string_of_int m.m_p) (string_of_int p);
  if m.m_q <> q then mismatch "q" (string_of_int m.m_q) (string_of_int q);
  if m.m_d <> d then mismatch "d" (string_of_int m.m_d) (string_of_int d);
  if m.m_variant <> variant then
    mismatch "variant" (variant_name m.m_variant) (variant_name variant);
  if m.m_total <> total then
    mismatch "total" (string_of_int m.m_total) (string_of_int total)

(* ---------- shard files ---------- *)

(* Layout: magic "UMRSCKPT" (8) | version u16 | variant u8 | pad u8 |
   p u16 | q u16 | d u16 | shard u16 | lo i64 | hi i64 | done i64 |
   count i64 | checksum i64 | records (Corpus.Record codec). *)

type shard_state = {
  s_shard : int;
  s_lo : int;
  s_hi : int;
  s_done : int;
  s_matrices : Matrix.t list;
}

let shard_magic = "UMRSCKPT"
let shard_header_bytes = 60
let shard_version = 1

let save_shard ~dir ~p ~q ~d ~variant s =
  Io.atomic_write ~path:(Filename.concat dir (shard_name s.s_shard)) (fun out ->
      let records = List.map (Corpus.Record.encode ~p ~q ~d) s.s_matrices in
      let checksum = List.fold_left Corpus.fnv64 Corpus.fnv64_seed records in
      let b = Bytes.make shard_header_bytes '\000' in
      Bytes.blit_string shard_magic 0 b 0 8;
      Bytes.set_uint16_le b 8 shard_version;
      Bytes.set_uint8 b 10
        (match variant with Canonical.Full -> 0 | Canonical.Positional -> 1);
      Bytes.set_uint16_le b 12 p;
      Bytes.set_uint16_le b 14 q;
      Bytes.set_uint16_le b 16 d;
      Bytes.set_uint16_le b 18 s.s_shard;
      Bytes.set_int64_le b 20 (Int64.of_int s.s_lo);
      Bytes.set_int64_le b 28 (Int64.of_int s.s_hi);
      Bytes.set_int64_le b 36 (Int64.of_int s.s_done);
      Bytes.set_int64_le b 44 (Int64.of_int (List.length s.s_matrices));
      Bytes.set_int64_le b 52 checksum;
      Buffer.add_bytes out b;
      List.iter (Buffer.add_bytes out) records)

let load_shard ~dir ~p ~q ~d ~variant ~shard =
  let path = Filename.concat dir (shard_name shard) in
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let fail fmt =
          Printf.ksprintf
            (fun s ->
              invalid_arg (Printf.sprintf "Checkpoint shard %s: %s" path s))
            fmt
        in
        let b = Bytes.create shard_header_bytes in
        (try really_input ic b 0 shard_header_bytes
         with End_of_file -> fail "truncated header");
        if Bytes.sub_string b 0 8 <> shard_magic then fail "bad magic";
        if Bytes.get_uint16_le b 8 <> shard_version then
          fail "unsupported version %d" (Bytes.get_uint16_le b 8);
        let v =
          match Bytes.get_uint8 b 10 with
          | 0 -> Canonical.Full
          | 1 -> Canonical.Positional
          | x -> fail "unknown variant byte %d" x
        in
        if Bytes.get_uint16_le b 12 <> p || Bytes.get_uint16_le b 14 <> q
           || Bytes.get_uint16_le b 16 <> d || v <> variant then
          fail "parameter mismatch with the requested instance";
        if Bytes.get_uint16_le b 18 <> shard then
          fail "shard index mismatch (%d)" (Bytes.get_uint16_le b 18);
        let lo = Int64.to_int (Bytes.get_int64_le b 20) in
        let hi = Int64.to_int (Bytes.get_int64_le b 28) in
        let done_hi = Int64.to_int (Bytes.get_int64_le b 36) in
        let count = Int64.to_int (Bytes.get_int64_le b 44) in
        let stored_checksum = Bytes.get_int64_le b 52 in
        if lo < 0 || hi < lo || done_hi < lo || done_hi > hi || count < 0 then
          fail "inconsistent positions";
        let rec_bytes = Corpus.Record.bytes ~p ~q ~d in
        let checksum = ref Corpus.fnv64_seed in
        let matrices = ref [] in
        let buf = Bytes.create rec_bytes in
        for i = 0 to count - 1 do
          (try really_input ic buf 0 rec_bytes
           with End_of_file -> fail "truncated at record %d of %d" i count);
          checksum := Corpus.fnv64 !checksum buf;
          matrices := Corpus.Record.decode ~p ~q ~d ~variant buf :: !matrices
        done;
        if !checksum <> stored_checksum then fail "checksum mismatch";
        Some
          { s_shard = shard; s_lo = lo; s_hi = hi; s_done = done_hi;
            s_matrices = List.rev !matrices })
  end

let clear ~dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Array.iter
      (fun name ->
        if name = manifest_name
           || name = manifest_name ^ ".tmp"
           || (String.length name > 6 && String.sub name 0 6 = "shard_")
        then
          try Sys.remove (Filename.concat dir name) with Sys_error _ -> ())
      (Sys.readdir dir)
