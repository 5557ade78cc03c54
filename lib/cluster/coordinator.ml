module Wire = Umrs_server.Wire
module Server = Umrs_server.Server
module Corpus = Umrs_store.Corpus
module Query = Umrs_store.Query
module Shard = Umrs_store.Shard


let c_joins = Telemetry.counter "cluster.joins"
let c_deaths = Telemetry.counter "cluster.deaths"
let c_promotions = Telemetry.counter "cluster.promotions"
let c_publishes = Telemetry.counter "cluster.publishes"
let c_resharded = Telemetry.counter "cluster.reshards_completed"

let map_file = "cluster.umrsm"

type member = {
  m_addr : Wire.addr;
  mutable m_shard : int;       (* -1 = unassigned (orphaned by a merge) *)
  mutable m_ready : bool;
  mutable m_dead : bool;
  mutable m_checksum : int64;  (* last piece checksum the node reported *)
  mutable m_last : float;      (* wall-clock time of its last beat *)
  mutable m_cmd : Wire.node_cmd option;  (* delivered on its next beat *)
}

type pending =
  | Op_split of { ps_k : int; ps_mid : int; ps_owner : string }
  | Op_merge of { pm_k : int }

type config = {
  dir : string;          (* map file home *)
  corpus : string;       (* the FULL unsharded corpus *)
  listen : Wire.addr;
  shards : int;          (* initial topology when no map file exists *)
  heartbeat : float;     (* expected beat interval, seconds *)
  miss_limit : int;      (* beats missed before a node is declared dead *)
  workers : int;
}

let default_config ~dir ~corpus ~listen =
  { dir; corpus; listen; shards = 2; heartbeat = 0.5; miss_limit = 4;
    workers = 2 }

type t = {
  cfg : config;
  co_map_path : string;
  co_source : Corpus.header;
  co_query : Query.t;  (* full corpus: the canonical-checksum authority *)
  co_lock : Mutex.t;
  co_members : (string, member) Hashtbl.t;  (* keyed by addr_to_string *)
  mutable co_ranges : (int * int) array;
  mutable co_keys : int array array;
  mutable co_owners : string list array;  (* head = primary *)
  mutable co_version : int;
  mutable co_published : Wire.shard_map option;
  mutable co_pending : pending option;
  co_canon : (int * int, int64) Hashtbl.t;
  mutable co_self : Wire.addr;  (* resolved listen address *)
  mutable co_server : Server.t option;
  mutable co_stop : bool;
  mutable co_detector : Thread.t option;
  mutable co_deaths : int;
  mutable co_promotions : int;
}

let locked t f =
  Mutex.lock t.co_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.co_lock) f

(* The canonical checksum of record range [lo, hi): exactly the header
   checksum of a piece file holding those records, computed from the
   coordinator's own full corpus. This is what removes authority
   ambiguity from catch-up — a node's piece is correct iff its header
   checksum equals this fold, no matter which donor streamed it. *)
let canon t lo hi =
  match Hashtbl.find_opt t.co_canon (lo, hi) with
  | Some c -> c
  | None ->
    let h = t.co_source in
    let acc = ref Corpus.fnv64_seed in
    for i = lo to hi - 1 do
      acc :=
        Corpus.fnv64 !acc
          (Corpus.Record.encode ~p:h.Corpus.p ~q:h.Corpus.q ~d:h.Corpus.d
             (Query.nth t.co_query i))
    done;
    Hashtbl.add t.co_canon (lo, hi) !acc;
    !acc

let key_at t rank = Shard.matrix_key (Query.nth t.co_query rank)

let member t key = Hashtbl.find t.co_members key

let nranges t = Array.length t.co_ranges

(* ---------- map publication ---------- *)

exception Unpublishable

let shard_entry_locked t ~range:(lo, hi) ~key ~owners =
  match owners with
  | [] -> raise Unpublishable
  | p :: rs ->
    { Wire.sh_lo = lo; sh_hi = hi; sh_key = key;
      sh_primary = (member t p).m_addr;
      sh_replicas = List.map (fun r -> (member t r).m_addr) rs }

let assemble_map_locked t ~version shards =
  let h = t.co_source in
  { Wire.sm_version = version;
    sm_corpus_version = h.Corpus.version; sm_variant = h.Corpus.variant;
    sm_p = h.Corpus.p; sm_q = h.Corpus.q; sm_d = h.Corpus.d;
    sm_count = h.Corpus.count; sm_checksum = h.Corpus.checksum;
    sm_shards = shards }

let build_map_locked t =
  assemble_map_locked t ~version:t.co_version
    (Array.init (nranges t) (fun k ->
         shard_entry_locked t ~range:t.co_ranges.(k) ~key:t.co_keys.(k)
           ~owners:t.co_owners.(k)))

(* The post-flip topologies a reshard will produce, computed at command
   time: the acquiring node adopts the prospective map the moment its
   piece is local — BEFORE its handoff flips the real one — so a client
   routing under the flipped map can never catch it serving the old
   topology (a stale node answering a scatter with a slice from another
   version would corrupt the merge). The version is a floor — the real
   flip may land higher — which only stale verdicts see; the node syncs
   the true map once its handoff is accepted. [None] (degraded group)
   falls back to exactly that post-accept sync. *)
let prospective_split_locked t ~k ~mid ~owner =
  let n = nranges t in
  match
    assemble_map_locked t ~version:(t.co_version + 1)
      (Array.init (n + 1) (fun i ->
           if i = k then
             shard_entry_locked t
               ~range:(fst t.co_ranges.(k), mid)
               ~key:t.co_keys.(k) ~owners:t.co_owners.(k)
           else if i = k + 1 then
             shard_entry_locked t
               ~range:(mid, snd t.co_ranges.(k))
               ~key:(key_at t mid) ~owners:[ owner ]
           else
             let j = if i < k then i else i - 1 in
             shard_entry_locked t ~range:t.co_ranges.(j) ~key:t.co_keys.(j)
               ~owners:t.co_owners.(j)))
  with
  | sm -> Some sm
  | exception Unpublishable -> None

let prospective_merge_locked t ~k ~target =
  let n = nranges t in
  match
    assemble_map_locked t ~version:(t.co_version + 1)
      (Array.init (n - 1) (fun i ->
           if i = k then
             shard_entry_locked t
               ~range:(fst t.co_ranges.(k), snd t.co_ranges.(k + 1))
               ~key:t.co_keys.(k) ~owners:[ target ]
           else
             let j = if i < k then i else i + 1 in
             shard_entry_locked t ~range:t.co_ranges.(j) ~key:t.co_keys.(j)
               ~owners:t.co_owners.(j)))
  with
  | sm -> Some sm
  | exception Unpublishable -> None

(* Every topology change bumps the version — agents learn something
   moved from the version riding their heartbeat ack. Publication is
   gated harder: a map routes clients, so it only goes out while every
   range has at least one ready owner. A degraded cluster keeps its
   last good map (clients failover within the stale endpoint groups)
   until re-joins make the topology whole again. *)
let bump_and_publish_locked t =
  t.co_version <- t.co_version + 1;
  match build_map_locked t with
  | sm ->
    Shard_map.save ~path:t.co_map_path sm;
    t.co_published <- Some sm;
    Telemetry.add c_publishes 1
  | exception Unpublishable -> ()

(* ---------- failure handling ---------- *)

let die_locked t key reason =
  let m = member t key in
  if not m.m_dead then begin
    m.m_dead <- true;
    m.m_ready <- false;
    m.m_cmd <- None;
    t.co_deaths <- t.co_deaths + 1;
    Telemetry.add c_deaths 1;
    if Telemetry.enabled () then
      Telemetry.emit "cluster.death"
        [ ("node", Telemetry.Str key); ("reason", Telemetry.Str reason) ];
    if m.m_shard >= 0 && m.m_shard < nranges t then begin
      (match t.co_owners.(m.m_shard) with
      | p :: _ :: _ when p = key ->
        (* the primary fell; its first replica takes over at the bump *)
        t.co_promotions <- t.co_promotions + 1;
        Telemetry.add c_promotions 1
      | _ -> ());
      t.co_owners.(m.m_shard) <-
        List.filter (fun o -> o <> key) t.co_owners.(m.m_shard)
    end;
    (* a reshard whose moving parts died restarts from scratch *)
    (match t.co_pending with
    | Some (Op_split { ps_owner; _ }) when ps_owner = key ->
      t.co_pending <- None
    | Some (Op_merge { pm_k })
      when m.m_shard = pm_k || m.m_shard = pm_k + 1 ->
      t.co_pending <- None
    | _ -> ());
    bump_and_publish_locked t
  end

let detector_loop t =
  let tick = t.cfg.heartbeat /. 2.0 in
  while not t.co_stop do
    Unix.sleepf tick;
    if not t.co_stop then
      locked t (fun () ->
          let now = Unix.gettimeofday () in
          let deadline = float_of_int t.cfg.miss_limit *. t.cfg.heartbeat in
          Hashtbl.iter
            (fun key m ->
              if (not m.m_dead) && now -. m.m_last > deadline then
                die_locked t key
                  (Printf.sprintf "missed %d beats" t.cfg.miss_limit))
            t.co_members)
  done

(* ---------- membership handlers (all under the lock) ---------- *)

let live_count_locked t k =
  Hashtbl.fold
    (fun _ m acc -> if (not m.m_dead) && m.m_shard = k then acc + 1 else acc)
    t.co_members 0

let assign_shard_locked t m =
  if m.m_shard >= 0 && m.m_shard < nranges t then m.m_shard
  else begin
    (* least-populated group, counting joiners so simultaneous joins
       spread instead of piling onto the emptiest shard *)
    let best = ref 0 and best_n = ref max_int in
    for k = 0 to nranges t - 1 do
      let n = live_count_locked t k in
      if n < !best_n then begin
        best := k;
        best_n := n
      end
    done;
    !best
  end

let donor_locked t k ~self_key =
  match t.co_owners.(k) with
  | p :: _ when p <> self_key -> (member t p).m_addr
  | _ -> t.co_self  (* the coordinator serves the full corpus *)

let handle_join t ~addr ~ready ~checksum =
  let key = Wire.addr_to_string addr in
  let now = Unix.gettimeofday () in
  let m =
    match Hashtbl.find_opt t.co_members key with
    | Some m ->
      if m.m_dead then begin
        (* a returning corpse restarts its life as a joiner *)
        m.m_dead <- false;
        m.m_ready <- false;
        m.m_cmd <- None
      end;
      m.m_last <- now;
      m
    | None ->
      let m =
        { m_addr = addr; m_shard = -1; m_ready = false; m_dead = false;
          m_checksum = 0L; m_last = now; m_cmd = None }
      in
      Hashtbl.add t.co_members key m;
      Telemetry.add c_joins 1;
      m
  in
  let k = assign_shard_locked t m in
  m.m_shard <- k;
  let lo, hi = t.co_ranges.(k) in
  let want = canon t lo hi in
  if ready && checksum <> want then
    Wire.Rejected
      (Printf.sprintf
         "join refused: piece checksum %Lx does not match canonical %Lx for \
          records [%d, %d)"
         checksum want lo hi)
  else begin
    if ready then begin
      m.m_ready <- true;
      m.m_checksum <- checksum;
      if not (List.mem key t.co_owners.(k)) then
        t.co_owners.(k) <- t.co_owners.(k) @ [ key ];
      bump_and_publish_locked t
    end;
    Wire.Reply
      (Wire.R_joined
         { jr_shard = k; jr_lo = lo; jr_hi = hi;
           jr_donor = donor_locked t k ~self_key:key; jr_checksum = want;
           jr_version = t.co_version; jr_map = t.co_published })
  end

let handle_heartbeat t ~addr ~version:_ ~checksum =
  let key = Wire.addr_to_string addr in
  match Hashtbl.find_opt t.co_members key with
  | None | Some { m_dead = true; _ } ->
    (* unknown or declared dead: the node must re-join — its piece may
       be stale against a topology that moved while it was gone *)
    Wire.Reply
      (Wire.R_heartbeat
         { rh_version = t.co_version; rh_known = false; rh_cmd = None })
  | Some m ->
    m.m_last <- Unix.gettimeofday ();
    m.m_checksum <- checksum;
    let cmd = m.m_cmd in
    m.m_cmd <- None;
    Wire.Reply
      (Wire.R_heartbeat
         { rh_version = t.co_version; rh_known = true; rh_cmd = cmd })

let handle_leave t ~addr =
  let key = Wire.addr_to_string addr in
  match Hashtbl.find_opt t.co_members key with
  | None -> Wire.Rejected ("leave: unknown node " ^ key)
  | Some _ ->
    die_locked t key "leave";
    Wire.Reply (Wire.R_accepted (key ^ " left"))

let handle_reshard t op =
  if t.co_pending <> None then
    Wire.Rejected "reshard refused: another reshard is in flight"
  else if t.co_published = None then
    Wire.Rejected "reshard refused: no published map to reshard"
  else
    match op with
    | Wire.Split k ->
      if k < 0 || k >= nranges t then
        Wire.Rejected (Printf.sprintf "split refused: no shard %d" k)
      else begin
        let lo, hi = t.co_ranges.(k) in
        if hi - lo < 2 then
          Wire.Rejected
            (Printf.sprintf "split refused: shard %d holds %d record(s)" k
               (hi - lo))
        else begin
          (* the new range's owner is poached from the best-staffed
             group — and unlisted from the map BEFORE it starts
             acquiring, so no client routes to it while it swaps *)
          let big = ref (-1) and big_n = ref 1 in
          Array.iteri
            (fun g os ->
              let n = List.length os in
              if n > !big_n then begin
                big := g;
                big_n := n
              end)
            t.co_owners;
          if !big < 0 then
            Wire.Rejected
              "split refused: no group can spare a node for the new range"
          else begin
            let owner = List.nth t.co_owners.(!big) (!big_n - 1) in
            let om = member t owner in
            t.co_owners.(!big) <-
              List.filter (fun o -> o <> owner) t.co_owners.(!big);
            om.m_ready <- false;
            let mid = lo + ((hi - lo) / 2) in
            om.m_cmd <-
              Some
                (Wire.Cmd_acquire
                   { aq_lo = mid; aq_hi = hi;
                     aq_donor = donor_locked t k ~self_key:owner;
                     aq_map = prospective_split_locked t ~k ~mid ~owner });
            t.co_pending <- Some (Op_split { ps_k = k; ps_mid = mid;
                                             ps_owner = owner });
            bump_and_publish_locked t;
            Wire.Reply
              (Wire.R_accepted
                 (Printf.sprintf
                    "splitting shard %d at record %d; %s is acquiring [%d, %d)"
                    k mid owner mid hi))
          end
        end
      end
    | Wire.Merge k ->
      if k < 0 || k >= nranges t - 1 then
        Wire.Rejected
          (Printf.sprintf "merge refused: no adjacent pair (%d, %d)" k (k + 1))
      else begin
        let lo, _ = t.co_ranges.(k) in
        let _, hi = t.co_ranges.(k + 1) in
        let targets = t.co_owners.(k) in
        if targets = [] then
          Wire.Rejected
            (Printf.sprintf "merge refused: shard %d has no ready owner" k)
        else begin
          List.iter
            (fun o ->
              (member t o).m_cmd <-
                Some
                  (Wire.Cmd_acquire
                     { aq_lo = lo; aq_hi = hi; aq_donor = t.co_self;
                       aq_map = prospective_merge_locked t ~k ~target:o }))
            targets;
          t.co_pending <- Some (Op_merge { pm_k = k });
          Wire.Reply
            (Wire.R_accepted
               (Printf.sprintf
                  "merging shards %d and %d; group %d is acquiring [%d, %d)" k
                  (k + 1) k lo hi))
        end
      end

(* Insert the new range after a completed split: [k] narrows to
   [lo, mid), the acquiring owner becomes shard [k+1] = [mid, hi). *)
let flip_split_locked t ~k ~mid ~owner ~key =
  let lo, hi = t.co_ranges.(k) in
  let n = nranges t in
  let insert arr v =
    Array.init (n + 1) (fun i ->
        if i <= k then arr.(i) else if i = k + 1 then v else arr.(i - 1))
  in
  t.co_ranges <- insert t.co_ranges (mid, hi);
  t.co_ranges.(k) <- (lo, mid);
  t.co_keys <- insert t.co_keys key;
  t.co_owners <- insert t.co_owners [ owner ];
  Hashtbl.iter
    (fun mk m ->
      if mk = owner then m.m_shard <- k + 1
      else if m.m_shard > k then m.m_shard <- m.m_shard + 1)
    t.co_members;
  let om = member t owner in
  om.m_ready <- true;
  t.co_pending <- None;
  Telemetry.add c_resharded 1;
  bump_and_publish_locked t

(* Collapse [k] and [k+1] after the first group-[k] node holds the
   merged range. Laggards of group [k] drop out of the map until their
   own Handoff_done upserts them back; group [k+1] is orphaned and its
   members re-enter through a fresh join. *)
let flip_merge_locked t ~k ~reporter =
  let lo, _ = t.co_ranges.(k) in
  let _, hi = t.co_ranges.(k + 1) in
  let n = nranges t in
  let remove arr =
    Array.init (n - 1) (fun i -> if i <= k then arr.(i) else arr.(i + 1))
  in
  t.co_ranges <- remove t.co_ranges;
  t.co_ranges.(k) <- (lo, hi);
  t.co_keys <- remove t.co_keys;
  t.co_owners <- remove t.co_owners;
  t.co_owners.(k) <- [ reporter ];
  Hashtbl.iter
    (fun mk m ->
      if m.m_shard = k && mk <> reporter then m.m_ready <- false
      else if m.m_shard = k + 1 then begin
        m.m_shard <- -1;
        m.m_ready <- false;
        m.m_cmd <- None
      end
      else if m.m_shard > k + 1 then m.m_shard <- m.m_shard - 1)
    t.co_members;
  (member t reporter).m_ready <- true;
  t.co_pending <- None;
  Telemetry.add c_resharded 1;
  bump_and_publish_locked t

let handle_handoff t ~addr ~lo ~hi ~key ~checksum =
  let mkey = Wire.addr_to_string addr in
  match Hashtbl.find_opt t.co_members mkey with
  | None | Some { m_dead = true; _ } ->
    Wire.Rejected ("handoff from unknown or dead node " ^ mkey)
  | Some m ->
    let want = canon t lo hi in
    if checksum <> want then
      Wire.Rejected
        (Printf.sprintf
           "handoff refused: checksum %Lx does not match canonical %Lx for \
            [%d, %d)"
           checksum want lo hi)
    else if key <> key_at t lo then
      Wire.Rejected "handoff refused: boundary key does not match record"
    else begin
      m.m_checksum <- checksum;
      m.m_last <- Unix.gettimeofday ();
      match t.co_pending with
      | Some (Op_split { ps_k; ps_mid; ps_owner })
        when ps_owner = mkey && lo = ps_mid
             && hi = snd t.co_ranges.(ps_k) ->
        flip_split_locked t ~k:ps_k ~mid:ps_mid ~owner:mkey ~key;
        Wire.Reply
          (Wire.R_accepted
             (Printf.sprintf "split complete: shard %d now [%d, %d)"
                (ps_k + 1) lo hi))
      | Some (Op_merge { pm_k })
        when m.m_shard = pm_k && lo = fst t.co_ranges.(pm_k)
             && hi = snd t.co_ranges.(pm_k + 1) ->
        flip_merge_locked t ~k:pm_k ~reporter:mkey;
        Wire.Reply
          (Wire.R_accepted
             (Printf.sprintf "merge complete: shard %d now [%d, %d)" pm_k lo
                hi))
      | _ ->
        (* no pending op matches: a laggard finishing after the flip.
           If it now holds exactly its shard's current range, upsert
           it back into rotation. *)
        if
          m.m_shard >= 0
          && m.m_shard < nranges t
          && t.co_ranges.(m.m_shard) = (lo, hi)
        then begin
          m.m_ready <- true;
          if not (List.mem mkey t.co_owners.(m.m_shard)) then
            t.co_owners.(m.m_shard) <- t.co_owners.(m.m_shard) @ [ mkey ];
          bump_and_publish_locked t;
          Wire.Reply
            (Wire.R_accepted
               (Printf.sprintf "%s re-entered rotation for shard %d" mkey
                  m.m_shard))
        end
        else
          Wire.Rejected
            (Printf.sprintf
               "handoff for [%d, %d) matches no pending operation or owned \
                range"
               lo hi)
    end

let handle_status t =
  let now = Unix.gettimeofday () in
  let members =
    Hashtbl.fold
      (fun key m acc ->
        let in_map =
          m.m_shard >= 0
          && m.m_shard < nranges t
          && List.mem key t.co_owners.(m.m_shard)
        in
        let primary =
          in_map
          && match t.co_owners.(m.m_shard) with
             | p :: _ -> p = key
             | [] -> false
        in
        { Wire.mi_addr = m.m_addr; mi_shard = m.m_shard;
          mi_state =
            (if m.m_dead then Wire.Dead
             else if m.m_ready then Wire.Ready
             else Wire.Joining);
          mi_in_map = in_map; mi_primary = primary;
          mi_checksum = m.m_checksum; mi_beat_age = now -. m.m_last }
        :: acc)
      t.co_members []
  in
  Wire.Reply
    (Wire.R_status
       { cs_version = t.co_version;
         cs_published = t.co_published <> None;
         cs_members = members })

let handle t req =
  locked t (fun () ->
      match req with
      | Wire.Join { jn_addr; jn_ready; jn_checksum } ->
        handle_join t ~addr:jn_addr ~ready:jn_ready ~checksum:jn_checksum
      | Wire.Leave addr -> handle_leave t ~addr
      | Wire.Heartbeat { hb_addr; hb_version; hb_checksum } ->
        handle_heartbeat t ~addr:hb_addr ~version:hb_version
          ~checksum:hb_checksum
      | Wire.Reshard op -> handle_reshard t op
      | Wire.Handoff_done { hd_addr; hd_lo; hd_hi; hd_key; hd_checksum } ->
        handle_handoff t ~addr:hd_addr ~lo:hd_lo ~hi:hd_hi ~key:hd_key
          ~checksum:hd_checksum
      | Wire.Cluster_status -> handle_status t
      | Wire.Get_shard_map -> (
        match t.co_published with
        | Some sm -> Wire.Reply (Wire.R_shard_map sm)
        | None -> Wire.Rejected "no shard map published yet")
      | _ -> Wire.Rejected "not a membership request")

(* ---------- lifecycle ---------- *)

let start cfg =
  if cfg.shards < 1 then Error "Coordinator.start: shards must be >= 1"
  else if cfg.heartbeat <= 0.0 then
    Error "Coordinator.start: heartbeat must be > 0"
  else if cfg.miss_limit < 1 then
    Error "Coordinator.start: miss_limit must be >= 1"
  else begin
    (match Membership.clean_dir cfg.dir with Ok () | Error _ -> ());
    match Query.open_ ~corpus:cfg.corpus () with
    | Error e -> Error (Query.error_to_string e)
    | Ok query -> (
      let source = Query.header query in
      let map_path = Filename.concat cfg.dir map_file in
      let adopt =
        if Sys.file_exists map_path then
          match Shard_map.load ~path:map_path with
          | Ok sm ->
            if sm.Wire.sm_checksum <> source.Corpus.checksum
               || sm.Wire.sm_count <> source.Corpus.count
            then
              Error
                (map_path
               ^ ": existing shard map describes a different corpus")
            else Ok (Some sm)
          | Error m -> Error m
        else Ok None
      in
      match adopt with
      | Error m ->
        Query.close query;
        Error m
      | Ok prior ->
        let ranges, keys, version =
          match prior with
          | Some sm ->
            (* a coordinator restart keeps the resharded topology;
               owners repopulate as the nodes re-join *)
            ( Array.map
                (fun sh -> (sh.Wire.sh_lo, sh.Wire.sh_hi))
                sm.Wire.sm_shards,
              Array.map (fun sh -> sh.Wire.sh_key) sm.Wire.sm_shards,
              sm.Wire.sm_version + 1 )
          | None ->
            if source.Corpus.count < cfg.shards then
              invalid_arg "Coordinator.start: fewer records than shards";
            ( Array.init cfg.shards
                (Shard.bounds ~count:source.Corpus.count ~shards:cfg.shards),
              [||], 1 )
        in
        let t =
          { cfg; co_map_path = map_path; co_source = source;
            co_query = query; co_lock = Mutex.create ();
            co_members = Hashtbl.create 16; co_ranges = ranges;
            co_keys = keys; co_owners = Array.make (Array.length ranges) [];
            co_version = version; co_published = None; co_pending = None;
            co_canon = Hashtbl.create 8; co_self = cfg.listen;
            co_server = None; co_stop = false; co_detector = None;
            co_deaths = 0; co_promotions = 0 }
        in
        if t.co_keys = [||] then
          t.co_keys <- Array.map (fun (lo, _) -> key_at t lo) t.co_ranges;
        let scfg =
          { (Server.default_config cfg.listen) with
            Server.workers = cfg.workers; corpus = Some cfg.corpus;
            membership = Some (handle t) }
        in
        (match Server.start scfg with
        | Error m ->
          Query.close query;
          Error m
        | Ok srv ->
          t.co_self <- Server.addr srv;
          t.co_server <- Some srv;
          t.co_detector <- Some (Thread.create detector_loop t);
          Ok t))
  end

let server t =
  match t.co_server with Some s -> s | None -> assert false

let addr t = t.co_self
let map_path t = t.co_map_path
let version t = locked t (fun () -> t.co_version)
let published t = locked t (fun () -> t.co_published)
let deaths t = locked t (fun () -> t.co_deaths)
let promotions t = locked t (fun () -> t.co_promotions)

let shutdown t =
  t.co_stop <- true;
  Server.shutdown (server t)

let wait t =
  Server.wait (server t);
  t.co_stop <- true;
  (match t.co_detector with
  | Some th ->
    Thread.join th;
    t.co_detector <- None
  | None -> ());
  Query.close t.co_query
