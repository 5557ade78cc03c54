module Wire = Umrs_server.Wire
module Corpus = Umrs_store.Corpus
module Io = Umrs_fault.Io

let magic = "UMRSSMAP"
let schema_version = 1
let header_bytes = 22

let build ~source ~version ~pieces ~endpoints =
  let n = Array.length pieces in
  if n = 0 then invalid_arg "Shard_map.build: no pieces";
  if Array.length endpoints <> n then
    invalid_arg "Shard_map.build: one endpoint group per piece required";
  let shards =
    Array.map2
      (fun pc (primary, replicas) ->
        { Wire.sh_lo = pc.Umrs_store.Shard.pc_lo;
          sh_hi = pc.Umrs_store.Shard.pc_hi;
          sh_key = pc.Umrs_store.Shard.pc_key;
          sh_primary = primary; sh_replicas = replicas })
      pieces endpoints
  in
  let sm =
    { Wire.sm_version = version;
      sm_corpus_version = source.Corpus.version;
      sm_variant = source.Corpus.variant;
      sm_p = source.Corpus.p; sm_q = source.Corpus.q; sm_d = source.Corpus.d;
      sm_count = source.Corpus.count; sm_checksum = source.Corpus.checksum;
      sm_shards = shards }
  in
  match Wire.validate_shard_map sm with
  | Ok () -> sm
  | Error m -> invalid_arg ("Shard_map.build: " ^ m)

let save ~path sm =
  let payload = Wire.shard_map_to_bytes sm in
  let hdr = Bytes.create header_bytes in
  Bytes.blit_string magic 0 hdr 0 8;
  Bytes.set_uint16_le hdr 8 schema_version;
  Bytes.set_int32_le hdr 10 (Int32.of_int (Bytes.length payload));
  Bytes.set_int64_le hdr 14 (Corpus.fnv64 Corpus.fnv64_seed payload);
  (* the map is either the old topology or the new one, never a torn
     hybrid *)
  Io.atomic_write ~path (fun b ->
      Buffer.add_bytes b hdr;
      Buffer.add_bytes b payload)

let load ~path =
  (* Every verdict names the file and the field that failed: a map
     file surfaces in error reports from nodes that did not write it,
     so "checksum mismatch" without a path is a dead end for the
     operator holding three data dirs. *)
  let err field msg =
    Error (Printf.sprintf "%s: shard map %s: %s" path field msg)
  in
  match In_channel.open_bin path with
  | exception Sys_error m -> Error m
  | ic ->
    let b = Bytes.of_string (In_channel.input_all ic) in
    In_channel.close ic;
    if Bytes.length b < header_bytes then
      err "header"
        (Printf.sprintf "file is %d bytes, header needs %d" (Bytes.length b)
           header_bytes)
    else if Bytes.sub_string b 0 8 <> magic then
      err "magic"
        (Printf.sprintf "%S is not %S — not a shard map file"
           (Bytes.sub_string b 0 8) magic)
    else begin
      let sv = Bytes.get_uint16_le b 8 in
      if sv <> schema_version then
        err "schema"
          (Printf.sprintf "version %d unsupported (this build reads %d)" sv
             schema_version)
      else begin
        let len = Int32.to_int (Bytes.get_int32_le b 10) in
        if len < 0 || Bytes.length b <> header_bytes + len then
          err "payload length"
            (Printf.sprintf "header says %d bytes, file carries %d" len
               (Bytes.length b - header_bytes))
        else begin
          let payload = Bytes.sub b header_bytes len in
          let got = Corpus.fnv64 Corpus.fnv64_seed payload in
          let want = Bytes.get_int64_le b 14 in
          if want <> got then
            err "checksum"
              (Printf.sprintf "header %Lx, payload hashes to %Lx" want got)
          else
            match Wire.shard_map_of_bytes payload with
            | exception Invalid_argument m -> err "payload" m
            | sm -> (
              match Wire.validate_shard_map sm with
              | Error m -> err "topology" m
              | Ok () -> Ok sm)
        end
      end
    end
