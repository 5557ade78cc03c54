module Wire = Umrs_server.Wire
module Server = Umrs_server.Server
module C = Umrs_client
module Corpus = Umrs_store.Corpus
module Query = Umrs_store.Query
module Shard = Umrs_store.Shard
module Io = Umrs_fault.Io
module Fault = Umrs_fault.Fault


let c_beats = Telemetry.counter "cluster.node.heartbeats"
let c_catchups = Telemetry.counter "cluster.node.catchups"
let c_rejoins = Telemetry.counter "cluster.node.rejoins"

(* ---------- data-dir hygiene ---------- *)

(* Unix socket paths and atomic-publication tempfiles survive SIGKILL;
   a restarting node must sweep them or its own bind fails on its own
   corpse. The socket probe is the server's: a *connectable* socket is
   a live server and an address-in-use error, never a delete. *)
let clean_dir dir =
  if not (Sys.file_exists dir) then
    match Unix.mkdir dir 0o755 with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
      Error (dir ^ ": " ^ Unix.error_message e)
  else if not (Sys.is_directory dir) then Error (dir ^ ": not a directory")
  else begin
    let failure = ref None in
    Array.iter
      (fun f ->
        if !failure = None then begin
          let path = Filename.concat dir f in
          if Filename.check_suffix f ".sock" then (
            match Server.clear_stale_socket path with
            | Ok () -> ()
            | Error m -> failure := Some m)
          else if Filename.check_suffix f ".tmp" then
            try Sys.remove path with Sys_error _ -> ()
        end)
      (Sys.readdir dir);
    match !failure with None -> Ok () | Some m -> Error m
  end

(* ---------- piece files ---------- *)

(* The range is in the name, so a returning node can tell what it
   holds by listing its dir; whether the bytes are still CURRENT is
   decided by checksum against the coordinator's canonical value,
   never by the name. *)
let piece_path dir lo hi =
  Filename.concat dir (Printf.sprintf "piece.%d-%d.corpus" lo hi)

let local_piece dir lo hi =
  let path = piece_path dir lo hi in
  if not (Sys.file_exists path) then None
  else
    match Corpus.info ~path with
    | h -> Some (path, h.Corpus.checksum)
    | exception (Sys_error _ | Invalid_argument _) -> None

(* An index that [Query.open_] refuses (torn by a crash before the
   index was written atomically, say) is rebuilt, not reused. *)
let ensure_index path =
  match Query.open_ ~corpus:path () with
  | Ok q ->
    Query.close q;
    Ok ()
  | Error _ -> (
    match Query.build ~corpus:path () with
    | Ok _ -> Ok ()
    | Error e -> Error (Query.error_to_string e))

(* ---------- configuration ---------- *)

type config = {
  coordinator : Wire.addr;
  dir : string;
  listen : Wire.addr;
  advertise : Wire.addr option;  (* default: the resolved listen addr *)
  heartbeat : float;
  workers : int;
  join_attempts : int;
}

let default_config ~coordinator ~dir ~listen =
  { coordinator; dir; listen; advertise = None; heartbeat = 0.5;
    workers = 2; join_attempts = 10 }

type t = {
  cfg : config;
  ms_server : Server.t;
  ms_self : Wire.addr;
  ms_conn : C.Robust.conn;  (* heartbeat-thread channel; single-threaded *)
  ms_lock : Mutex.t;
  mutable ms_version : int;
  mutable ms_range : (int * int) option;
  mutable ms_checksum : int64;
  mutable ms_ready : bool;
  mutable ms_stop : bool;
  mutable ms_hb : Thread.t option;
  mutable ms_acquiring : bool;
  mutable ms_catchups : int;  (* piece fetches completed *)
  mutable ms_last_error : string option;
  (* Topology/piece installation is a multi-step swap (shard state,
     piece file, bookkeeping) racing between the heartbeat thread
     (map refetches) and an acquire thread (command handoffs).
     [ms_apply] serializes every such swap, and [ms_map_version]
     (under [ms_lock]) records the version of the topology currently
     installed so a map fetched before a flip can never be applied
     after it — a stale application would narrow away a piece a newer
     topology already claimed. *)
  ms_apply : Mutex.t;
  mutable ms_map_version : int;
}

let locked t f =
  Mutex.lock t.ms_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.ms_lock) f

let applying t f =
  Mutex.lock t.ms_apply;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.ms_apply) f

let fail t m =
  locked t (fun () -> t.ms_last_error <- Some m);
  Error m

(* ---------- acquiring a range from a donor ---------- *)

let batch_size = 256

(* Stream records [lo, hi) from [donor] into a fresh piece file.
   Records travel as pipelined [Nth] batches — the donor may be the
   coordinator (full corpus) or any node whose range covers [lo, hi):
   both serve GLOBAL indices, so the fetch loop cannot tell them
   apart. The piece is written in canonical record order through the
   atomic-publication seam, so any two nodes acquiring the same range
   hold byte-identical files. Returns the piece path, its checksum and
   its first record's routing key. *)
let acquire t ~donor ~lo ~hi ~want =
  let conn = C.Robust.create ~policy:Client.default_policy donor in
  Fun.protect ~finally:(fun () -> C.Robust.close conn) @@ fun () ->
  match C.Robust.call conn Wire.Corpus_info with
  | Error e -> Error ("donor corpus info: " ^ C.error_to_string e)
  | Ok (Wire.R_header h) -> (
    let final = piece_path t.cfg.dir lo hi in
    (* The writer publishes [tmp], not [final]: the piece takes its
       final name only once its checksum matches the canonical one. *)
    let tmp = final ^ ".tmp" in
    let w =
      Corpus.create_writer ~path:tmp ~variant:h.Corpus.variant
        ~p:h.Corpus.p ~q:h.Corpus.q ~d:h.Corpus.d
    in
    let first_key = ref [||] in
    let rec pull i =
      if i >= hi then Ok ()
      else begin
        let n = min batch_size (hi - i) in
        let rs =
          C.Robust.call_many conn (List.init n (fun j -> Wire.Nth (i + j)))
        in
        let rec store j = function
          | [] -> pull (i + n)
          | Ok (Wire.R_matrix m) :: rest ->
            if i + j = lo then first_key := Shard.matrix_key m;
            Corpus.write w m;
            store (j + 1) rest
          | Ok _ :: _ -> Error "donor answered Nth with a non-matrix"
          | Error e :: _ ->
            Error
              (Printf.sprintf "fetching record %d: %s" (i + j)
                 (C.error_to_string e))
        in
        store 0 rs
      end
    in
    match pull lo with
    | Error m ->
      (try Corpus.close_writer w |> ignore with _ -> ());
      (try Sys.remove tmp with Sys_error _ -> ());
      Error m
    | Ok () -> (
      let hdr = Corpus.close_writer w in
      match want with
      | Some want when hdr.Corpus.checksum <> want ->
        (try Sys.remove tmp with Sys_error _ -> ());
        Error
          (Printf.sprintf
             "acquired piece checksum %Lx does not match canonical %Lx"
             hdr.Corpus.checksum want)
      | _ -> (
        Io.rename ~src:tmp ~dst:final;
        Io.fsync_dir (Filename.dirname final);
        match ensure_index final with
        | Error m -> Error m
        | Ok () ->
          locked t (fun () -> t.ms_catchups <- t.ms_catchups + 1);
          Telemetry.add c_catchups 1;
          Ok (final, hdr.Corpus.checksum, !first_key))))
  | Ok _ -> Error "donor answered Corpus_info with a non-header"

(* ---------- map application ---------- *)

(* Shard state first, piece narrowing second: the superset piece
   answers correctly under the narrowed state (same [lo], global→local
   translation unchanged), while a narrowed piece under the old state
   would read past its own end. This ordering is the double-serving
   invariant seen from the node's side. *)
let narrow t ~lo ~hi =
  match locked t (fun () -> t.ms_range) with
  | Some (plo, phi) when plo = lo && phi > hi -> (
    let old = piece_path t.cfg.dir plo phi in
    let final = piece_path t.cfg.dir lo hi in
    match Corpus.open_reader ~path:old with
    | exception (Sys_error m | Invalid_argument m) -> ignore (fail t m)
    | r ->
      let h = Corpus.reader_header r in
      let w =
        Corpus.create_writer ~path:final ~variant:h.Corpus.variant
          ~p:h.Corpus.p ~q:h.Corpus.q ~d:h.Corpus.d
      in
      for _ = lo to hi - 1 do
        match Corpus.read_next r with
        | Some m -> Corpus.write w m
        | None -> ()
      done;
      Corpus.close_reader r;
      let hdr = Corpus.close_writer w in
      (match ensure_index final with
      | Error m -> ignore (fail t m)
      | Ok () -> (
        match Server.set_corpus t.ms_server ~corpus:(Some final) ~origin:lo ()
        with
        | Error m -> ignore (fail t m)
        | Ok () ->
          locked t (fun () ->
              t.ms_range <- Some (lo, hi);
              t.ms_checksum <- hdr.Corpus.checksum);
          (* the retired superset is garbage now *)
          (try Sys.remove old with Sys_error _ -> ());
          (try Sys.remove (Query.index_path old) with Sys_error _ -> ()))))
  | _ -> ()

(* Adopt a published map: [true] iff this node appears in it.

   Version-monotonic: a map older than the topology this node already
   installed is ignored (reported as [true] — a stale map carries no
   authority about current membership either). Without the guard, a
   map fetched just before a flip and applied just after an acquire
   thread swapped in the post-flip state would narrow the freshly
   acquired piece back down to the pre-flip range and delete the
   bytes the new topology claims this node holds. *)
let apply_map_unlocked t sm =
  if locked t (fun () -> sm.Wire.sm_version < t.ms_map_version) then true
  else begin
    let me = Wire.addr_to_string t.ms_self in
    let mine = ref None in
    Array.iteri
      (fun k sh ->
        if
          Wire.addr_to_string sh.Wire.sh_primary = me
          || List.exists
               (fun a -> Wire.addr_to_string a = me)
               sh.Wire.sh_replicas
        then mine := Some k)
      sm.Wire.sm_shards;
    match !mine with
    | None -> false
    | Some k ->
      locked t (fun () ->
          t.ms_map_version <- max t.ms_map_version sm.Wire.sm_version);
      (match Server.set_shard t.ms_server (Some (sm, k)) with
      | Ok () ->
        let sh = sm.Wire.sm_shards.(k) in
        narrow t ~lo:sh.Wire.sh_lo ~hi:sh.Wire.sh_hi
      | Error m -> ignore (fail t m));
      true
  end

let apply_map t sm = applying t (fun () -> apply_map_unlocked t sm)

(* Adopt a topology the coordinator has commanded but not yet
   published (a reshard's post-flip map, or a join assignment): the
   node locates its shard by the range it is taking over and serves
   under the new map so a client routing under the flipped topology
   can never catch it answering from the old one. NOT advertised —
   [Get_shard_map] keeps returning the last published map, so a
   refreshing client cannot install a map the coordinator hasn't
   flipped. Returns [true] iff the range was found and adopted. *)
let adopt_prospective_unlocked t sm ~lo ~hi =
  let mine = ref None in
  Array.iteri
    (fun k sh ->
      if sh.Wire.sh_lo = lo && sh.Wire.sh_hi = hi then mine := Some k)
    sm.Wire.sm_shards;
  match !mine with
  | None -> false
  | Some k -> (
    match Server.set_shard t.ms_server ~advertise:false (Some (sm, k)) with
    | Ok () ->
      (* claim the prospective version: once the post-flip topology is
         installed, no pre-flip map fetch may roll it back *)
      locked t (fun () ->
          t.ms_map_version <- max t.ms_map_version sm.Wire.sm_version);
      true
    | Error m ->
      ignore (fail t m);
      false)

(* ---------- joining ---------- *)

let join_once t =
  let my_checksum =
    match locked t (fun () -> t.ms_range) with
    | Some (lo, hi) -> (
      match local_piece t.cfg.dir lo hi with
      | Some (_, ck) -> ck
      | None -> 0L)
    | None -> 0L
  in
  match
    C.Robust.call t.ms_conn
      (Wire.Join
         { jn_addr = t.ms_self; jn_ready = false; jn_checksum = my_checksum })
  with
  | Error e -> fail t ("join: " ^ C.error_to_string e)
  | Ok (Wire.R_joined { jr_lo; jr_hi; jr_donor; jr_checksum; jr_map; _ }) -> (
    (* reuse the piece on disk iff its bytes are provably current;
       otherwise catch up by re-fetching the range from the donor *)
    let piece =
      match local_piece t.cfg.dir jr_lo jr_hi with
      | Some (path, ck) when ck = jr_checksum -> (
        match ensure_index path with
        | Ok () -> Ok (path, ck)
        | Error m -> Error m)
      | _ -> (
        match
          acquire t ~donor:jr_donor ~lo:jr_lo ~hi:jr_hi
            ~want:(Some jr_checksum)
        with
        | Ok (path, ck, _) -> Ok (path, ck)
        | Error m -> Error m)
    in
    match piece with
    | Error m -> fail t m
    | Ok (path, ck) -> (
      (* Shard state before corpus: a returning node may still be held
         (at its old address) in stale client epochs, and until it
         routes under its newly assigned range those clients must get
         stale verdicts — never records translated under the wrong
         shard origin (the server compares the piece origin shipped
         with [set_corpus] against its shard state and answers the
         mismatch window as stale). A genuinely fresh node is in
         nobody's epoch, so the ordering costs it nothing. *)
      match
        applying t (fun () ->
            (match jr_map with
            | Some sm ->
              ignore (adopt_prospective_unlocked t sm ~lo:jr_lo ~hi:jr_hi)
            | None -> ());
            Server.set_corpus t.ms_server ~corpus:(Some path) ~origin:jr_lo ())
      with
      | Error m -> fail t m
      | Ok () -> (
        match
          C.Robust.call t.ms_conn
            (Wire.Join
               { jn_addr = t.ms_self; jn_ready = true; jn_checksum = ck })
        with
        | Error e -> fail t ("ready join: " ^ C.error_to_string e)
        | Ok (Wire.R_joined { jr_shard = _; jr_version; jr_map; _ }) ->
          locked t (fun () ->
              t.ms_range <- Some (jr_lo, jr_hi);
              t.ms_checksum <- ck;
              t.ms_ready <- true;
              t.ms_version <- jr_version);
          (match jr_map with
          | Some sm -> ignore (apply_map t sm)
          | None ->
            (* the cluster is not whole yet; the map arrives via a
               later heartbeat's version bump *)
            ());
          Ok ()
        | Ok (Wire.R_accepted _ | _) -> fail t "ready join: unexpected reply")))
  | Ok _ -> fail t "join: unexpected reply"

let rec join t attempts =
  match join_once t with
  | Ok () -> Ok ()
  | Error m ->
    if attempts <= 1 then Error m
    else begin
      Unix.sleepf t.cfg.heartbeat;
      join t (attempts - 1)
    end

let rejoin t =
  Telemetry.add c_rejoins 1;
  locked t (fun () -> t.ms_ready <- false);
  ignore (join t 1)

(* ---------- command execution ---------- *)

(* Resharding commands run off the heartbeat thread: an acquire can
   take many beat intervals, and a node that stops beating while it
   streams would be declared dead by the very coordinator that gave it
   the work. *)
let run_acquire t ~lo ~hi ~donor ~prospective =
  let report path ck key =
    let conn = C.Robust.create ~policy:Client.default_policy t.cfg.coordinator in
    Fun.protect ~finally:(fun () -> C.Robust.close conn) @@ fun () ->
    let same_lo =
      match locked t (fun () -> t.ms_range) with
      | Some (plo, _) -> plo = lo
      | None -> false
    in
    (* Before reporting, move to the post-flip state the command
       shipped, in per-case order. A merge keeps our [lo]: superset
       piece first (it serves the current shard state correctly —
       same origin, wider file), then the prospective map. A split
       owner takes a range with a NEW origin: prospective map first —
       the new range is unroutable until the flip, and old-range
       requests from stale epochs get verdicts — then the piece. Both
       orders guarantee the flip never catches this node routing
       under the old topology while the coordinator publishes the new
       one (a well-formed answer from the wrong version would be
       silently merged by a scattering client). *)
    let adopted = ref false in
    applying t (fun () ->
        if same_lo then (
          match
            Server.set_corpus t.ms_server ~corpus:(Some path) ~origin:lo ()
          with
          | Ok () ->
            locked t (fun () ->
                t.ms_range <- Some (lo, hi);
                t.ms_checksum <- ck);
            (match prospective with
            | Some sm -> adopted := adopt_prospective_unlocked t sm ~lo ~hi
            | None -> ())
          | Error m -> ignore (fail t m))
        else
          match prospective with
          | None -> ()
          | Some sm ->
            if adopt_prospective_unlocked t sm ~lo ~hi then (
              match
                Server.set_corpus t.ms_server ~corpus:(Some path) ~origin:lo
                  ()
              with
              | Ok () ->
                adopted := true;
                locked t (fun () ->
                    t.ms_range <- Some (lo, hi);
                    t.ms_checksum <- ck)
              | Error m -> ignore (fail t m)));
    match
      C.Robust.call conn
        (Wire.Handoff_done
           { hd_addr = t.ms_self; hd_lo = lo; hd_hi = hi; hd_key = key;
             hd_checksum = ck })
    with
    | Ok (Wire.R_accepted _) ->
      (* fallback for a command without a prospective map (degraded
         group at command time): swap after the accept — late, but
         the only option left *)
      if (not same_lo) && not !adopted then
        applying t (fun () ->
            ignore (Server.set_shard t.ms_server None);
            match
              Server.set_corpus t.ms_server ~corpus:(Some path) ~origin:lo ()
            with
            | Ok () ->
              locked t (fun () ->
                  t.ms_range <- Some (lo, hi);
                  t.ms_checksum <- ck)
            | Error m -> ignore (fail t m));
      (* the flip happened inside the accept: fetch the new map now
         rather than waiting out a heartbeat interval *)
      (match C.Robust.call conn Wire.Get_shard_map with
      | Ok (Wire.R_shard_map sm) ->
        if apply_map t sm then
          locked t (fun () -> t.ms_version <- sm.Wire.sm_version)
      | Ok _ | Error _ -> ());
      Ok ()
    | Ok _ -> fail t "handoff: unexpected reply"
    | Error e -> fail t ("handoff: " ^ C.error_to_string e)
  in
  match acquire t ~donor ~lo ~hi ~want:None with
  | Error m -> ignore (fail t m)
  | Ok (path, ck, key) -> ignore (report path ck key)

let start_acquire t ~lo ~hi ~donor ~prospective =
  let already = locked t (fun () ->
      if t.ms_acquiring then true
      else begin
        t.ms_acquiring <- true;
        false
      end)
  in
  if not already then begin
    (* The command supersedes every older topology right now, not when
       the handoff completes: claiming its version here (synchronously,
       on the heartbeat thread that delivered it) stops a concurrent
       refetch of the pre-command map from being applied mid-acquire —
       such an application would narrow the node's piece under the
       in-flight command's feet and retire the very piece file the
       acquire is writing (epochs share canonical piece paths). *)
    (match prospective with
    | Some sm ->
      locked t (fun () ->
          t.ms_map_version <- max t.ms_map_version sm.Wire.sm_version)
    | None -> ());
    ignore
      (Thread.create
         (fun () ->
           Fun.protect
             ~finally:(fun () -> locked t (fun () -> t.ms_acquiring <- false))
             (fun () -> run_acquire t ~lo ~hi ~donor ~prospective))
         ())
  end

(* ---------- heartbeat loop ---------- *)

let refetch_map t rh_version =
  match C.Robust.call t.ms_conn Wire.Get_shard_map with
  | Ok (Wire.R_shard_map sm) ->
    let in_map = apply_map t sm in
    locked t (fun () -> t.ms_version <- rh_version);
    if (not in_map) && locked t (fun () -> t.ms_ready) && not
         (locked t (fun () -> t.ms_acquiring))
    then
      (* ready but written out of the topology (e.g. orphaned by a
         merge): come back as a fresh joiner *)
      rejoin t
  | Ok _ | Error _ -> ()  (* degraded: try again next beat *)

let heartbeat_loop t =
  while not t.ms_stop do
    Unix.sleepf t.cfg.heartbeat;
    if not t.ms_stop then
      match Fault.fire Fault.Partition with
      | Fault.Pass -> (
        let beat =
          match Fault.fire Fault.Heartbeat_loss with
          | Fault.Pass -> true
          | _ -> false  (* this beat is lost in the network *)
        in
        if beat then begin
          Telemetry.add c_beats 1;
          let version, checksum =
            locked t (fun () -> (t.ms_version, t.ms_checksum))
          in
          match
            C.Robust.call t.ms_conn
              (Wire.Heartbeat
                 { hb_addr = t.ms_self; hb_version = version;
                   hb_checksum = checksum })
          with
          | Ok (Wire.R_heartbeat { rh_version; rh_known; rh_cmd }) ->
            if not rh_known then rejoin t
            else begin
              (match rh_cmd with
              | Some (Wire.Cmd_acquire { aq_lo; aq_hi; aq_donor; aq_map }) ->
                start_acquire t ~lo:aq_lo ~hi:aq_hi ~donor:aq_donor
                  ~prospective:aq_map
              | None -> ());
              if rh_version <> version then refetch_map t rh_version
            end
          | Ok _ | Error _ -> ()  (* unreachable beat; the next may land *)
        end)
      | _ -> ()  (* partitioned: the whole exchange is lost *)
  done

(* ---------- lifecycle ---------- *)

let start cfg =
  if cfg.heartbeat <= 0.0 then Error "Membership.start: heartbeat must be > 0"
  else
    match clean_dir cfg.dir with
    | Error m -> Error m
    | Ok () -> (
      let scfg =
        { (Server.default_config cfg.listen) with Server.workers = cfg.workers }
      in
      match Server.start scfg with
      | Error m -> Error m
      | Ok srv -> (
        let self =
          match cfg.advertise with Some a -> a | None -> Server.addr srv
        in
        let t =
          { cfg; ms_server = srv; ms_self = self;
            ms_conn =
              C.Robust.create ~policy:Client.default_policy cfg.coordinator;
            ms_lock = Mutex.create (); ms_version = 0; ms_range = None;
            ms_checksum = 0L; ms_ready = false; ms_stop = false;
            ms_hb = None; ms_acquiring = false; ms_catchups = 0;
            ms_last_error = None; ms_apply = Mutex.create ();
            ms_map_version = 0 }
        in
        match join t cfg.join_attempts with
        | Error m ->
          C.Robust.close t.ms_conn;
          Server.shutdown srv;
          Server.wait srv;
          Error m
        | Ok () ->
          t.ms_hb <- Some (Thread.create heartbeat_loop t);
          Ok t))

let server t = t.ms_server
let self_addr t = t.ms_self
let version t = locked t (fun () -> t.ms_version)
let range t = locked t (fun () -> t.ms_range)
let checksum t = locked t (fun () -> t.ms_checksum)
let catchups t = locked t (fun () -> t.ms_catchups)
let last_error t = locked t (fun () -> t.ms_last_error)

let stop ?(leave = true) t =
  if not t.ms_stop then begin
    t.ms_stop <- true;
    if leave then begin
      (* [ms_conn] belongs to the heartbeat thread, which may be
         mid-call right now — a second caller interleaving reads on
         the same socket would corrupt both frames. The goodbye gets
         its own connection. *)
      let conn =
        C.Robust.create ~policy:Client.default_policy t.cfg.coordinator
      in
      Fun.protect
        ~finally:(fun () -> C.Robust.close conn)
        (fun () -> ignore (C.Robust.call conn (Wire.Leave t.ms_self)))
    end;
    Server.shutdown t.ms_server
  end

let wait t =
  (match t.ms_hb with
  | Some th ->
    Thread.join th;
    t.ms_hb <- None
  | None -> ());
  Server.wait t.ms_server;
  C.Robust.close t.ms_conn
