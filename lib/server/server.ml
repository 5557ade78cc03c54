type config = {
  addr : Wire.addr;
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  corpus : string option;
  index : string option;
  max_conns : int;
  handshake_timeout : float;
  wbuf_hwm : int;
  shard : (Wire.shard_map * int) option;
  membership : (Wire.request -> Wire.outcome) option;
}

let default_config addr =
  { addr; workers = 2; queue_capacity = 64; cache_capacity = 128;
    corpus = None; index = None; max_conns = 10_240; handshake_timeout = 10.0;
    wbuf_hwm = 256 * 1024; shard = None; membership = None }

(* cap on a [Sleep_ms] request, so one client cannot park a worker for
   good *)
let max_sleep_ms = 60_000

(* ---------- telemetry ---------- *)

let c_accepted = Telemetry.counter "server.connections"
let c_requests = Telemetry.counter "server.requests"
let c_overloaded = Telemetry.counter "server.overloaded"
let c_timeouts = Telemetry.counter "server.timeouts"
let c_rejected = Telemetry.counter "server.rejected"
let c_cache_hits = Telemetry.counter "server.cache_hits"
let c_cache_misses = Telemetry.counter "server.cache_misses"
let c_conn_refused = Telemetry.counter "server.connections_refused"
let c_worker_crashes = Telemetry.counter "server.worker_crashes"
let g_queue_depth = Telemetry.gauge "server.queue_depth"
let g_queue_hwm = Telemetry.gauge "server.queue_hwm"
let g_live_conns = Telemetry.gauge "server.live_connections"
let g_loop_wakeups = Telemetry.gauge "server.loop_wakeups"
let g_cache_evictions = Telemetry.gauge "server.cache_evictions"

(* ---------- connections ----------

   One [econn] per socket, owned exclusively by the poller thread:
   only [ec_id] ever escapes it (inside a worker's respond closure),
   and completions come back keyed by that id, so a worker finishing
   after the connection died — and after the fd number was recycled —
   can never touch the wrong socket. *)

type econn = {
  ec_id : int;
  ec_fd : Unix.file_descr;
  mutable ec_hs_done : bool;
  ec_hs_deadline : float;  (* absolute; [infinity] = no timeout *)
  mutable ec_rbuf : Bytes.t;  (* unparsed input, always at offset 0 *)
  mutable ec_rlen : int;
  mutable ec_wbuf : Bytes.t;  (* unsent output at [ec_woff, ec_woff+ec_wlen) *)
  mutable ec_woff : int;
  mutable ec_wlen : int;
  mutable ec_int_r : bool;  (* interest currently armed in the loop *)
  mutable ec_int_w : bool;
  mutable ec_paused : bool;  (* reads paused: write buffer above hwm *)
  mutable ec_dirty : bool;   (* batching flag for completion delivery *)
  mutable ec_closed : bool;
}

type epoll_state = {
  ep_loop : Umrs_evloop.t;
  ep_by_fd : (int, econn) Hashtbl.t;  (* poller-only *)
  ep_by_id : (int, econn) Hashtbl.t;  (* poller-only *)
  ep_comp_lock : Mutex.t;
  mutable ep_completions : (int * Bytes.t) list;  (* newest first *)
  ep_finish : bool Atomic.t;  (* workers drained: flush and exit *)
  mutable ep_poller : Thread.t option;
}

(* The worker pool only ever answers through [j_respond], which queues a
   completion for the poller and wakes it. *)
type job = {
  j_deadline : float;  (* absolute seconds; [infinity] = none *)
  j_req : Wire.request;
  j_respond : Wire.outcome -> unit;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  actual_addr : Wire.addr;
  (* Both of these are runtime-mutable so a cluster node can adopt a
     new topology (or a freshly acquired corpus piece) without a
     restart.  [shard_state] is read once per request; [corpus_gen]
     tells workers their private Query handle is stale — the pair is
     published ref-then-generation, so a worker that observes the new
     generation always observes the new path. *)
  shard_state : (Wire.shard_map * int) option Atomic.t;
  (* The map [Get_shard_map] answers with. Usually mirrors
     [shard_state], but a node mid-handoff serves under a prospective
     (not yet published) topology — [set_shard ~advertise:false] —
     and must keep advertising the last published map so a refreshing
     client can never install a map the coordinator hasn't flipped. *)
  advert_map : Wire.shard_map option Atomic.t;
  (* (path, index, piece origin): the third component is the global
     rank of the piece's first record when the corpus is a shard piece
     rather than the whole corpus. It travels with the path so a worker
     snapshotting its Query handle also snapshots the origin that
     describes it — [exec_sharded] compares it against the shard state
     to detect a mid-handoff piece/topology mismatch. *)
  corpus_ref : (string option * string option * int option) Atomic.t;
  corpus_gen : int Atomic.t;
  queue : job Jobqueue.t;
  stop : bool Atomic.t;
  cache : (string * string * string, Umrs_routing.Scheme.evaluation) Lru.t;
  cache_lock : Mutex.t;
  n_conns : int Atomic.t;  (* accepted, cumulative *)
  n_live : int Atomic.t;   (* currently open *)
  n_requests : int Atomic.t;
  n_overloaded : int Atomic.t;
  n_timeouts : int Atomic.t;
  n_rejected : int Atomic.t;
  n_cache_hits : int Atomic.t;
  n_cache_misses : int Atomic.t;
  n_worker_crashes : int Atomic.t;
  n_queue_hwm : int Atomic.t;
  (* Worker pool under supervision: [workers_arr.(slot)] is the live
     domain for that slot; a domain killed by an escaped exception
     reports its slot on [sup_deaths] and the supervisor thread joins
     it and spawns a replacement, bumping [sup_generation]. All four
     are guarded by [sup_lock]/[sup_cond]. *)
  mutable workers_arr : unit Domain.t array;
  sup_lock : Mutex.t;
  sup_cond : Condition.t;
  sup_deaths : int Queue.t;
  mutable sup_generation : int;
  mutable sup_stop : bool;
  mutable supervisor : Thread.t option;
  ep : epoll_state;
  mutable waited : bool;
}

let addr t = t.actual_addr
let worker_crashes t = Atomic.get t.n_worker_crashes
let shard t = Atomic.get t.shard_state

let set_shard t ?(advertise = true) = function
  | None ->
    Atomic.set t.shard_state None;
    if advertise then Atomic.set t.advert_map None;
    Ok ()
  | Some (map, me) ->
    if me < 0 || me >= Array.length map.Wire.sm_shards then
      Error "Server: shard index out of range"
    else (
      match Wire.validate_shard_map map with
      | Error e -> Error ("Server: invalid shard map: " ^ e)
      | Ok () ->
        Atomic.set t.shard_state (Some (map, me));
        if advertise then Atomic.set t.advert_map (Some map);
        Ok ())

let set_corpus t ~corpus ?index ?origin () =
  match corpus with
  | None ->
    Atomic.set t.corpus_ref (None, None, None);
    Atomic.incr t.corpus_gen;
    Ok ()
  | Some path -> (
    (* validate before publishing, like [start] does: a worker finding
       the new piece unopenable would silently serve nothing *)
    match Umrs_store.Query.open_ ~corpus:path ?index ~mmap:true () with
    | Error e -> Error (Umrs_store.Query.error_to_string e)
    | Ok q ->
      Umrs_store.Query.close q;
      (* path first, then generation: a worker that observes the new
         generation is guaranteed to reopen the new path *)
      Atomic.set t.corpus_ref (Some path, index, origin);
      Atomic.incr t.corpus_gen;
      Ok ())

let stats_of srv =
  let evictions =
    Mutex.lock srv.cache_lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock srv.cache_lock)
      (fun () -> Lru.evictions srv.cache)
  in
  { Wire.st_connections = Atomic.get srv.n_conns;
    st_requests = Atomic.get srv.n_requests;
    st_overloaded = Atomic.get srv.n_overloaded;
    st_timeouts = Atomic.get srv.n_timeouts;
    st_rejected = Atomic.get srv.n_rejected;
    st_cache_hits = Atomic.get srv.n_cache_hits;
    st_cache_misses = Atomic.get srv.n_cache_misses;
    st_queue_depth = Jobqueue.length srv.queue;
    st_queue_capacity = srv.cfg.queue_capacity;
    st_workers = srv.cfg.workers;
    st_draining = Atomic.get srv.stop;
    st_live_conns = Atomic.get srv.n_live;
    st_cache_evictions = evictions;
    st_loop_wakeups = Umrs_evloop.wakeups srv.ep.ep_loop;
    st_queue_hwm = Atomic.get srv.n_queue_hwm }

let note_queue_depth srv =
  let d = Jobqueue.length srv.queue in
  let rec bump () =
    let cur = Atomic.get srv.n_queue_hwm in
    if d > cur && not (Atomic.compare_and_set srv.n_queue_hwm cur d) then
      bump ()
  in
  bump ();
  Telemetry.set_gauge g_queue_depth (float_of_int d)

(* ---------- request execution (worker side) ---------- *)

let exec_corpus query f =
  match query with
  | None -> Wire.Rejected "no corpus attached to this server"
  | Some (q, _) -> f q

(* A shard node serves *global* indices and ranks: corpus requests are
   validated against the node's slice of the shard map, translated to
   local coordinates inward and back to global outward, so a sharded
   cluster is byte-identical to a single node over the whole corpus. A
   request the map routes elsewhere gets a structured stale-shard
   rejection carrying this node's map version — the client's cue to
   refresh its map and re-route.

   A node mid-handoff or mid-rejoin can transiently hold a piece from
   a different epoch than the shard state it serves under (the two are
   swapped in separate atomic steps). Global↔local translation is only
   sound when the piece's recorded origin equals the shard's [lo] and
   the piece is long enough for the answer — so any mismatch is
   answered as a stale topology, which a client can act on (refresh,
   re-route), never as a bare library error it cannot, and never as
   records translated under the wrong origin. A piece that is a
   *superset* of the claim with the same origin (double-serving during
   a merge) still serves normally. *)
let exec_sharded query map me req =
  let sh = map.Wire.sm_shards.(me) in
  let lo = sh.Wire.sh_lo in
  let claimed = sh.Wire.sh_hi - lo in
  let stale () = Wire.stale_shard_reject ~version:map.Wire.sm_version in
  let with_piece f =
    match query with
    | None -> Wire.Rejected "no corpus attached to this server"
    | Some (_, Some origin) when origin <> lo -> stale ()
    | Some (q, _) -> f q (Umrs_store.Query.header q).Umrs_store.Corpus.count
  in
  match req with
  | Wire.Nth i ->
    if Wire.route_index map i <> me then stale ()
    else
      with_piece (fun q count ->
          if i - lo >= count then stale ()
          else Wire.Reply (Wire.R_matrix (Umrs_store.Query.nth q (i - lo))))
  | Wire.Cgraph_of i ->
    if Wire.route_index map i <> me then stale ()
    else
      with_piece (fun q count ->
          if i - lo >= count then stale ()
          else Wire.Reply (Wire.R_graph (Umrs_store.Query.cgraph q (i - lo))))
  | Wire.Mem m ->
    if Wire.route_matrix map m <> me then stale ()
    else
      with_piece (fun q count ->
          if Umrs_store.Query.mem q m then Wire.Reply (Wire.R_found true)
          else if count < claimed then
            (* the piece is short of the claim: the record could live in
               the part this node doesn't hold yet *)
            stale ()
          else Wire.Reply (Wire.R_found false))
  | Wire.Rank m ->
    if Wire.route_matrix map m <> me then stale ()
    else
      with_piece (fun q count ->
          let r = Umrs_store.Query.rank q m in
          if r >= count && count < claimed then stale ()
          else Wire.Reply (Wire.R_rank (lo + r)))
  | Wire.Range_prefix prefix ->
    let a, b = Wire.route_prefix map prefix in
    if me < a || me > b then stale ()
    else
      with_piece (fun q count ->
          if count < claimed then stale ()
          else
            let l, h = Umrs_store.Query.range_prefix q prefix in
            (* clamp to the claimed range: under double-serving the
               piece extends past [sh_hi], and those records belong to
               a neighbour's slice in the scatter the client merges *)
            let l = min l claimed and h = min h claimed in
            (* version-stamped: a scatter carries no rank to validate,
               so the stamp is the only evidence a merging client gets
               that this slice was computed under a different topology *)
            Wire.Reply
              (Wire.R_slice
                 { sl_version = map.Wire.sm_version; sl_lo = lo + l;
                   sl_hi = lo + h }))
  | _ -> assert false (* only corpus-query requests are dispatched here *)

let exec_unsharded query req =
  match req with
  | Wire.Nth i ->
    exec_corpus query (fun q ->
        Wire.Reply (Wire.R_matrix (Umrs_store.Query.nth q i)))
  | Wire.Mem m ->
    exec_corpus query (fun q ->
        Wire.Reply (Wire.R_found (Umrs_store.Query.mem q m)))
  | Wire.Rank m ->
    exec_corpus query (fun q ->
        Wire.Reply (Wire.R_rank (Umrs_store.Query.rank q m)))
  | Wire.Range_prefix prefix ->
    exec_corpus query (fun q ->
        let lo, hi = Umrs_store.Query.range_prefix q prefix in
        Wire.Reply (Wire.R_range (lo, hi)))
  | Wire.Cgraph_of i ->
    exec_corpus query (fun q ->
        Wire.Reply (Wire.R_graph (Umrs_store.Query.cgraph q i)))
  | _ -> assert false (* only corpus-query requests are dispatched here *)

let exec srv query req =
  match req with
  | Wire.Ping nonce -> Wire.Reply (Wire.R_pong nonce)
  | Wire.Stats -> Wire.Reply (Wire.R_stats (stats_of srv))
  | Wire.Get_shard_map -> (
    (* a coordinator answers from its membership table; a plain shard
       node from the map it currently serves under *)
    match srv.cfg.membership with
    | Some handle -> handle req
    | None -> (
      match Atomic.get srv.advert_map with
      | Some map -> Wire.Reply (Wire.R_shard_map map)
      | None -> (
        match Atomic.get srv.shard_state with
        | Some (map, _) -> Wire.Reply (Wire.R_shard_map map)
        | None -> Wire.Rejected "this server is not part of a cluster")))
  | Wire.Join _ | Wire.Leave _ | Wire.Heartbeat _ | Wire.Reshard _
  | Wire.Handoff_done _ | Wire.Cluster_status -> (
    match srv.cfg.membership with
    | Some handle -> handle req
    | None -> Wire.Rejected "this server is not a cluster coordinator")
  | Wire.Nth _ | Wire.Mem _ | Wire.Rank _ | Wire.Range_prefix _
  | Wire.Cgraph_of _ -> (
    match Atomic.get srv.shard_state with
    | Some (map, me) -> exec_sharded query map me req
    | None -> exec_unsharded query req)
  | Wire.Corpus_info ->
    exec_corpus query (fun q ->
        Wire.Reply (Wire.R_header (Umrs_store.Query.header q)))
  | Wire.Evaluate { scheme; graph_name; graph } -> (
    match Umrs_routing.Registry.find scheme with
    | None -> Wire.Rejected (Printf.sprintf "unknown scheme %S" scheme)
    | Some s ->
      (* the key carries the graph's full encoding, not a digest: a
         hash collision must never serve another graph's result *)
      let key = (scheme, graph_name, Wire.graph_key graph) in
      let cached =
        Mutex.lock srv.cache_lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock srv.cache_lock)
          (fun () -> Lru.find srv.cache key)
      in
      (match cached with
      | Some e ->
        Atomic.incr srv.n_cache_hits;
        Telemetry.add c_cache_hits 1;
        Wire.Reply (Wire.R_evaluation e)
      | None ->
        Atomic.incr srv.n_cache_misses;
        Telemetry.add c_cache_misses 1;
        (* The expensive build runs outside the cache lock: two workers
           racing on the same graph duplicate work once rather than
           serializing every evaluation. *)
        let e = Umrs_routing.Scheme.evaluate s ~graph_name graph in
        Mutex.lock srv.cache_lock;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock srv.cache_lock)
          (fun () -> Lru.add srv.cache key e);
        Wire.Reply (Wire.R_evaluation e)))
  | Wire.Sleep_ms ms ->
    if ms < 0 || ms > max_sleep_ms then
      Wire.Rejected
        (Printf.sprintf "sleep %d outside [0, %d] ms" ms max_sleep_ms)
    else begin
      if ms > 0 then Unix.sleepf (float_of_int ms /. 1000.0);
      Wire.Reply (Wire.R_slept ms)
    end

let handle_job srv query job =
  let now = Unix.gettimeofday () in
  if now > job.j_deadline then begin
    Atomic.incr srv.n_timeouts;
    Telemetry.add c_timeouts 1;
    job.j_respond Wire.Timed_out
  end
  else begin
    (* The event's [seconds] is a measurement: monotonic, read only with
       a sink attached. [now]/[finished] serve the deadline alone. *)
    let timed = Telemetry.enabled () in
    let t0 = if timed then Umrs_bench.Clock.now_ns () else 0L in
    Umrs_fault.Io.worker_hook ();
    let outcome =
      (* A request the library layer refuses (out-of-range record, shape
         mismatch, undecodable graph...) is the caller's problem, never
         the server's: report it, keep serving. *)
      try exec srv query job.j_req with
      | Invalid_argument msg | Failure msg -> Wire.Rejected msg
      | Not_found -> Wire.Rejected "not found"
      | e -> Wire.Rejected (Printexc.to_string e)
    in
    let finished = Unix.gettimeofday () in
    let outcome =
      if finished > job.j_deadline then begin
        Atomic.incr srv.n_timeouts;
        Telemetry.add c_timeouts 1;
        Wire.Timed_out
      end
      else begin
        (match outcome with
        | Wire.Rejected _ ->
          Atomic.incr srv.n_rejected;
          Telemetry.add c_rejected 1
        | _ -> ());
        outcome
      end
    in
    if timed then
      Telemetry.emit "server.request"
        [ ("op", Telemetry.Str (Wire.opcode_name (Wire.opcode job.j_req)));
          ("seconds", Telemetry.Float (Umrs_bench.Clock.since_s t0));
          ("ok", Telemetry.Bool (match outcome with Wire.Reply _ -> true | _ -> false)) ];
    job.j_respond outcome
  end

let open_worker_query srv =
  match Atomic.get srv.corpus_ref with
  | None, _, _ -> None
  | Some corpus, index, origin -> (
    match Umrs_store.Query.open_ ~corpus ?index ~mmap:true () with
    | Ok q -> Some (q, origin)
    | Error _ -> None (* validated at [start]/[set_corpus]; raced damage *))

let worker_loop srv =
  (* Each worker owns a private Query handle: the point lookups share a
     seekable cursor that is single-threaded by design.  Every handle
     shares one file mapping, so a pool of N workers costs one mapping,
     not N channel buffers.  The generation counter is read before the
     path: a corpus swap publishes path first, so a worker that sees
     the new generation reopens the new piece. *)
  let my_gen = ref (Atomic.get srv.corpus_gen) in
  let query = ref (open_worker_query srv) in
  Fun.protect
    ~finally:(fun () ->
      Option.iter (fun (q, _) -> Umrs_store.Query.close q) !query)
    (fun () ->
      let rec loop () =
        match Jobqueue.pop srv.queue with
        | None -> ()
        | Some job ->
          let gen = Atomic.get srv.corpus_gen in
          if gen <> !my_gen then begin
            Option.iter (fun (q, _) -> Umrs_store.Query.close q) !query;
            query := open_worker_query srv;
            my_gen := gen
          end;
          Telemetry.set_gauge g_queue_depth
            (float_of_int (Jobqueue.length srv.queue));
          (match handle_job srv !query job with
          | () -> ()
          | exception e ->
            (* An exception escaping the per-request handler is a server
               bug (or an injected fault): answer the request so its
               client is never left hanging, then let this domain die —
               the supervisor replaces it, so one poisoned handler can't
               bleed state into later requests. *)
            Atomic.incr srv.n_worker_crashes;
            Telemetry.add c_worker_crashes 1;
            Atomic.incr srv.n_rejected;
            Telemetry.add c_rejected 1;
            job.j_respond
              (Wire.Rejected ("internal error: " ^ Printexc.to_string e));
            raise e);
          loop ()
      in
      loop ())

let worker_body srv slot () =
  try worker_loop srv
  with _ ->
    (* the job that killed this domain was already answered and counted
       in [worker_loop]; report the slot so the supervisor respawns *)
    Mutex.lock srv.sup_lock;
    Queue.push slot srv.sup_deaths;
    Condition.broadcast srv.sup_cond;
    Mutex.unlock srv.sup_lock

(* Replaces dead workers for as long as the server lives — including
   during drain, where the replacement finishes draining the queue so
   accepted jobs are still answered even if the last worker died. *)
let supervisor_loop srv =
  let rec loop () =
    Mutex.lock srv.sup_lock;
    while Queue.is_empty srv.sup_deaths && not srv.sup_stop do
      Condition.wait srv.sup_cond srv.sup_lock
    done;
    if Queue.is_empty srv.sup_deaths then Mutex.unlock srv.sup_lock
    else begin
      let slot = Queue.pop srv.sup_deaths in
      let dead = srv.workers_arr.(slot) in
      Mutex.unlock srv.sup_lock;
      Domain.join dead;
      let replacement = Domain.spawn (worker_body srv slot) in
      Mutex.lock srv.sup_lock;
      srv.workers_arr.(slot) <- replacement;
      srv.sup_generation <- srv.sup_generation + 1;
      Mutex.unlock srv.sup_lock;
      if Telemetry.enabled () then
        Telemetry.emit "server.worker.respawned" [ ("slot", Telemetry.Int slot) ];
      loop ()
    end
  in
  loop ()

(* ---------- admission ---------- *)

(* Control-plane requests run on the poller thread itself; with
   a membership hook attached they can raise (bad reshard argument,
   racing topology), and that must cost the request, not the thread. *)
let exec_control srv req =
  try exec srv None req with
  | Invalid_argument msg | Failure msg -> Wire.Rejected msg
  | Not_found -> Wire.Rejected "not found"
  | e -> Wire.Rejected (Printexc.to_string e)

let deadline_of deadline_ms =
  if deadline_ms <= 0 then infinity
  else Unix.gettimeofday () +. (float_of_int deadline_ms /. 1000.)

(* Admit a decoded data-plane request to the worker pool, or answer
   [Overloaded] through [respond]: a full or draining queue sheds load
   instead of blocking the poller. *)
let admit srv ~deadline_ms req ~respond =
  let job =
    { j_deadline = deadline_of deadline_ms; j_req = req; j_respond = respond }
  in
  if Atomic.get srv.stop || not (Jobqueue.try_push srv.queue job) then begin
    Atomic.incr srv.n_overloaded;
    Telemetry.add c_overloaded 1;
    respond Wire.Overloaded
  end
  else note_queue_depth srv

(* ---------- connection buffers ---------- *)

let initial_rbuf = 4096
let initial_wbuf = 1024
let read_chunk = 65536

let grow_to b needed =
  let cap = ref (max 1 (Bytes.length b)) in
  while !cap < needed do
    cap := !cap * 2
  done;
  let nb = Bytes.create !cap in
  Bytes.blit b 0 nb 0 (Bytes.length b);
  nb

(* Make room for [extra] more output bytes: compact first (cheap, the
   sent prefix is dead), grow only when the live tail cannot fit. *)
let wbuf_reserve ec extra =
  let cap = Bytes.length ec.ec_wbuf in
  if ec.ec_woff + ec.ec_wlen + extra > cap then begin
    if ec.ec_woff > 0 then begin
      Bytes.blit ec.ec_wbuf ec.ec_woff ec.ec_wbuf 0 ec.ec_wlen;
      ec.ec_woff <- 0
    end;
    if ec.ec_wlen + extra > cap then begin
      let nb = grow_to ec.ec_wbuf (ec.ec_wlen + extra) in
      (* grow_to copied the whole old buffer; only the live prefix
         matters and it is already at offset 0 *)
      ec.ec_wbuf <- nb
    end
  end

let append_raw ec b =
  let n = Bytes.length b in
  wbuf_reserve ec n;
  Bytes.blit b 0 ec.ec_wbuf (ec.ec_woff + ec.ec_wlen) n;
  ec.ec_wlen <- ec.ec_wlen + n

(* The frame header is written straight into the connection's scratch
   buffer: one reserve, no intermediate 4-byte allocation per reply. *)
let append_frame ec payload =
  let n = Bytes.length payload in
  wbuf_reserve ec (4 + n);
  let tail = ec.ec_woff + ec.ec_wlen in
  Bytes.set_int32_le ec.ec_wbuf tail (Int32.of_int n);
  Bytes.blit payload 0 ec.ec_wbuf (tail + 4) n;
  ec.ec_wlen <- ec.ec_wlen + 4 + n

(* ---------- poller ---------- *)

let close_econn srv es ec =
  if not ec.ec_closed then begin
    ec.ec_closed <- true;
    Umrs_evloop.remove es.ep_loop ec.ec_fd;
    Hashtbl.remove es.ep_by_fd (Umrs_evloop.int_of_fd ec.ec_fd);
    Hashtbl.remove es.ep_by_id ec.ec_id;
    Atomic.decr srv.n_live;
    try Unix.close ec.ec_fd with Unix.Unix_error _ -> ()
  end

let set_interest es ec ~readable ~writable =
  if readable <> ec.ec_int_r || writable <> ec.ec_int_w then begin
    ec.ec_int_r <- readable;
    ec.ec_int_w <- writable;
    Umrs_evloop.modify es.ep_loop ec.ec_fd ~readable ~writable
  end

(* Write until the socket blocks or the buffer empties.  Goes through
   the fault seam so storms can reset, delay, or shorten the write. *)
let flush_wbuf srv es ec =
  let continue = ref true in
  while !continue && ec.ec_wlen > 0 do
    match
      Umrs_fault.Io.write_once ec.ec_fd ec.ec_wbuf ec.ec_woff ec.ec_wlen
    with
    | 0 -> continue := false
    | n ->
      ec.ec_woff <- ec.ec_woff + n;
      ec.ec_wlen <- ec.ec_wlen - n;
      if ec.ec_wlen = 0 then ec.ec_woff <- 0
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception (Unix.Unix_error _ | Sys_error _ | Umrs_fault.Fault.Injected _)
      ->
      (* an injected storm fault (or a real error) on this socket is
         this connection's problem, never the poller's.  [continue]
         must clear too: the buffer still holds bytes, and retrying a
         write on the closed — possibly already recycled — descriptor
         would spin this loop forever *)
      close_econn srv es ec;
      continue := false
  done

(* Flush, then re-derive pause state and loop interest from the buffer
   level — the single place the backpressure policy lives.  Above
   [wbuf_hwm] buffered bytes the socket stops being read (the client
   feels TCP backpressure); reads resume below half the mark.  In
   [finishing] mode the connection's only remaining job is emptying
   its buffer, after which it closes. *)
let pump srv es ec ~finishing =
  if not ec.ec_closed then begin
    flush_wbuf srv es ec;
    if not ec.ec_closed then begin
      if finishing && ec.ec_wlen = 0 then close_econn srv es ec
      else begin
        if (not ec.ec_paused) && ec.ec_wlen > srv.cfg.wbuf_hwm then
          ec.ec_paused <- true
        else if ec.ec_paused && ec.ec_wlen <= srv.cfg.wbuf_hwm / 2 then
          ec.ec_paused <- false;
        set_interest es ec
          ~readable:((not finishing) && not ec.ec_paused)
          ~writable:(ec.ec_wlen > 0)
      end
    end
  end

let process_frame srv es ec payload =
  match Wire.decode_request payload with
  | exception _ ->
    (* protocol violation: drop the connection, don't guess *)
    close_econn srv es ec
  | id, deadline_ms, req -> (
    Atomic.incr srv.n_requests;
    Telemetry.add c_requests 1;
    match req with
    | Wire.Ping _ | Wire.Stats | Wire.Get_shard_map
    | Wire.Join _ | Wire.Leave _ | Wire.Heartbeat _
    | Wire.Reshard _ | Wire.Handoff_done _ | Wire.Cluster_status ->
      (* control plane: answered inline by the poller so a saturated
         worker pool never blinds monitoring, map refresh, or
         heartbeats (a busy data plane must not read as a dead node) *)
      append_frame ec (Wire.encode_outcome ~id (exec_control srv req))
    | _ ->
      let conn_id = ec.ec_id in
      admit srv ~deadline_ms req ~respond:(fun outcome ->
          (* worker side: encode here (in parallel), deliver by conn
             id — never by fd, which may have been recycled *)
          let b = Wire.encode_outcome ~id outcome in
          Mutex.lock es.ep_comp_lock;
          es.ep_completions <- (conn_id, b) :: es.ep_completions;
          Mutex.unlock es.ep_comp_lock;
          Umrs_evloop.wakeup es.ep_loop))

(* Parse everything complete in the read buffer: the 10-byte hello
   first, then length-prefixed frames.  Partial input stays buffered —
   a slowloris client holds one connection and one buffer, not a
   thread. *)
let parse_input srv es ec =
  let off = ref 0 in
  if not ec.ec_hs_done && ec.ec_rlen >= Wire.hello_bytes then begin
    match Wire.check_hello (Bytes.sub ec.ec_rbuf 0 Wire.hello_bytes) with
    | Error _ -> close_econn srv es ec
    | Ok () ->
      ec.ec_hs_done <- true;
      off := Wire.hello_bytes;
      append_raw ec (Wire.hello ())
  end;
  if (not ec.ec_closed) && ec.ec_hs_done then begin
    let continue = ref true in
    while !continue && ec.ec_rlen - !off >= 4 do
      let len = Int32.to_int (Bytes.get_int32_le ec.ec_rbuf !off) in
      if len < 0 || len > Wire.default_max_frame then begin
        close_econn srv es ec;
        continue := false
      end
      else if ec.ec_rlen - !off - 4 >= len then begin
        let payload = Bytes.sub ec.ec_rbuf (!off + 4) len in
        off := !off + 4 + len;
        process_frame srv es ec payload;
        if ec.ec_closed then continue := false
      end
      else continue := false
    done
  end;
  if (not ec.ec_closed) && !off > 0 then begin
    let rem = ec.ec_rlen - !off in
    if rem > 0 then Bytes.blit ec.ec_rbuf !off ec.ec_rbuf 0 rem;
    ec.ec_rlen <- rem
  end

let handle_readable srv es ec =
  (* one read per readiness event; the loop is level-triggered, so
     leftover input re-arms immediately and no connection can starve
     the others by streaming *)
  if Bytes.length ec.ec_rbuf - ec.ec_rlen < read_chunk then
    ec.ec_rbuf <- grow_to ec.ec_rbuf (ec.ec_rlen + read_chunk);
  match
    Umrs_fault.Io.read ec.ec_fd ec.ec_rbuf ec.ec_rlen
      (Bytes.length ec.ec_rbuf - ec.ec_rlen)
  with
  | 0 -> close_econn srv es ec (* peer EOF (or injected half-close) *)
  | n ->
    ec.ec_rlen <- ec.ec_rlen + n;
    parse_input srv es ec
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception (Unix.Unix_error _ | Sys_error _ | Umrs_fault.Fault.Injected _)
    ->
    close_econn srv es ec

let accept_burst srv es next_id =
  let continue = ref true in
  while !continue do
    match Umrs_fault.Io.accept ~cloexec:true srv.listen_fd with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      continue := false
    | exception (Unix.Unix_error _ | Umrs_fault.Fault.Injected _) ->
      continue := false
    | fd, _ ->
      if Atomic.get srv.stop then begin
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else if Hashtbl.length es.ep_by_id >= srv.cfg.max_conns then begin
        (* at capacity: shed the connection at accept *)
        Telemetry.add c_conn_refused 1;
        try Unix.close fd with Unix.Unix_error _ -> ()
      end
      else begin
        (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
        Atomic.incr srv.n_conns;
        Atomic.incr srv.n_live;
        Telemetry.add c_accepted 1;
        incr next_id;
        let ec =
          { ec_id = !next_id; ec_fd = fd; ec_hs_done = false;
            ec_hs_deadline =
              (if srv.cfg.handshake_timeout > 0.0 then
                 Unix.gettimeofday () +. srv.cfg.handshake_timeout
               else infinity);
            ec_rbuf = Bytes.create initial_rbuf; ec_rlen = 0;
            ec_wbuf = Bytes.create initial_wbuf; ec_woff = 0; ec_wlen = 0;
            ec_int_r = true; ec_int_w = false; ec_paused = false;
            ec_dirty = false; ec_closed = false }
        in
        Hashtbl.replace es.ep_by_fd (Umrs_evloop.int_of_fd fd) ec;
        Hashtbl.replace es.ep_by_id ec.ec_id ec;
        Umrs_evloop.add es.ep_loop fd ~readable:true ~writable:false
      end
  done

(* Deliver worker completions queued since the last pass.  Frames are
   appended per connection first and each touched connection is pumped
   once — a pipelined burst of replies costs one flush, not one write
   syscall per reply. *)
let process_completions srv es ~finishing =
  Mutex.lock es.ep_comp_lock;
  let batch = es.ep_completions in
  es.ep_completions <- [];
  Mutex.unlock es.ep_comp_lock;
  match batch with
  | [] -> ()
  | _ ->
    let touched = ref [] in
    List.iter
      (fun (cid, payload) ->
        match Hashtbl.find_opt es.ep_by_id cid with
        | None -> () (* connection died with the job in flight *)
        | Some ec ->
          if not ec.ec_closed then begin
            append_frame ec payload;
            if not ec.ec_dirty then begin
              ec.ec_dirty <- true;
              touched := ec :: !touched
            end
          end)
      (List.rev batch);
    List.iter
      (fun ec ->
        ec.ec_dirty <- false;
        pump srv es ec ~finishing)
      !touched

let sweep_handshakes srv es now =
  let overdue = ref [] in
  Hashtbl.iter
    (fun _ ec ->
      if (not ec.ec_hs_done) && now > ec.ec_hs_deadline then
        overdue := ec :: !overdue)
    es.ep_by_id;
  List.iter (fun ec -> close_econn srv es ec) !overdue

let sweep_interval = 0.25

let poller_loop srv es =
  let loop = es.ep_loop in
  (try Unix.set_nonblock srv.listen_fd with Unix.Unix_error _ -> ());
  Umrs_evloop.add loop srv.listen_fd ~readable:true ~writable:false;
  let listen_open = ref true in
  let next_id = ref 0 in
  let next_sweep = ref (Unix.gettimeofday () +. sweep_interval) in
  let finish_deadline = ref infinity in
  let running = ref true in
  while !running do
    let finishing = Atomic.get es.ep_finish in
    let timeout_ms = if finishing then 20 else 250 in
    let handler fd ~readable ~writable ~hup =
      if fd == srv.listen_fd && !listen_open then accept_burst srv es next_id
      else
        match Hashtbl.find_opt es.ep_by_fd (Umrs_evloop.int_of_fd fd) with
        | None -> ()
        | Some ec -> (
          (* last-resort containment: whatever a storm injects (or a
             raced descriptor raises) takes down this one connection,
             never the poller *)
          try
            if readable && not finishing then handle_readable srv es ec;
            if not ec.ec_closed then begin
              if writable || ec.ec_wlen > 0 then pump srv es ec ~finishing
              else if hup && not readable then close_econn srv es ec
            end
          with
          | Unix.Unix_error _ | Sys_error _ | Sys_blocked_io
          | Umrs_fault.Fault.Injected _ ->
            close_econn srv es ec)
    in
    ignore (Umrs_evloop.wait loop ~timeout_ms ~handler);
    process_completions srv es ~finishing;
    if Atomic.get srv.stop && !listen_open then begin
      (* drain begins: no new connections, existing ones keep being
         read and answered ([admit] sheds to Overloaded) *)
      Umrs_evloop.remove loop srv.listen_fd;
      (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
      listen_open := false
    end;
    let now = Unix.gettimeofday () in
    if now >= !next_sweep then begin
      next_sweep := now +. sweep_interval;
      sweep_handshakes srv es now;
      Telemetry.set_gauge g_live_conns (float_of_int (Atomic.get srv.n_live));
      Telemetry.set_gauge g_loop_wakeups
        (float_of_int (Umrs_evloop.wakeups loop));
      Telemetry.set_gauge g_queue_hwm
        (float_of_int (Atomic.get srv.n_queue_hwm));
      if Telemetry.enabled () then
        Telemetry.set_gauge g_cache_evictions
          (float_of_int
             (let () = Mutex.lock srv.cache_lock in
              let e = Lru.evictions srv.cache in
              Mutex.unlock srv.cache_lock;
              e))
    end;
    if finishing then begin
      if !finish_deadline = infinity then begin
        (* every accepted job is answered and queued by now (workers
           are joined); what's left is flushing write buffers *)
        finish_deadline := now +. 5.0;
        let all = Hashtbl.fold (fun _ ec acc -> ec :: acc) es.ep_by_id [] in
        List.iter (fun ec -> pump srv es ec ~finishing:true) all
      end;
      if Hashtbl.length es.ep_by_id = 0 || now > !finish_deadline then
        running := false
    end
  done;
  (* stragglers that never drained their buffers within the grace
     period lose the tail *)
  let all = Hashtbl.fold (fun _ ec acc -> ec :: acc) es.ep_by_id [] in
  List.iter (fun ec -> close_econn srv es ec) all;
  if !listen_open then (try Unix.close srv.listen_fd with Unix.Unix_error _ -> ());
  Umrs_evloop.close loop

(* ---------- lifecycle ---------- *)

let validate_corpus cfg =
  match cfg.corpus with
  | None -> Ok ()
  | Some corpus -> (
    match Umrs_store.Query.open_ ~corpus ?index:cfg.index ~mmap:true () with
    | Ok q ->
      Umrs_store.Query.close q;
      Ok ()
    | Error e -> Error (Umrs_store.Query.error_to_string e))

(* Only ever unlink a *stale* socket: a path holding a live server (a
   probe connect succeeds) is an address-in-use error, and a path
   holding anything that is not a socket is never deleted. *)
let clear_unix_path path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Ok ()
  | exception Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)
  | { Unix.st_kind = Unix.S_SOCK; _ } ->
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      (* EINTR-retrying connect: a signal here must not make a live
         server's socket look stale *)
      try
        Umrs_fault.Io.connect probe (Unix.ADDR_UNIX path);
        true
      with Unix.Unix_error _ -> false
    in
    (try Unix.close probe with Unix.Unix_error _ -> ());
    if live then Error (Printf.sprintf "address already in use: %s" path)
    else (try Ok (Sys.remove path) with Sys_error e -> Error e)
  | _ ->
    Error
      (Printf.sprintf "%s exists and is not a socket; refusing to replace it"
         path)

let bind_listen addr =
  match addr with
  | Wire.Unix_sock path -> (
    match clear_unix_path path with
    | Error _ as e -> e
    | Ok () ->
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind fd (Unix.ADDR_UNIX path);
         Unix.listen fd 1024;
         Ok (fd, addr)
       with e ->
         (try Unix.close fd with Unix.Unix_error _ -> ());
         Error (Printexc.to_string e)))
  | Wire.Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt fd Unix.SO_REUSEADDR true;
       let inet =
         try Unix.inet_addr_of_string host
         with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
       in
       Unix.bind fd (Unix.ADDR_INET (inet, port));
       Unix.listen fd 1024;
       let actual =
         match Unix.getsockname fd with
         | Unix.ADDR_INET (_, p) -> Wire.Tcp (host, p)
         | _ -> addr
       in
       Ok (fd, actual)
     with e ->
       (try Unix.close fd with Unix.Unix_error _ -> ());
       Error (Printexc.to_string e))

let start cfg =
  if cfg.workers < 1 then Error "Server: workers must be >= 1"
  else if cfg.queue_capacity < 1 then Error "Server: queue_capacity must be >= 1"
  else if cfg.cache_capacity < 1 then Error "Server: cache_capacity must be >= 1"
  else if cfg.max_conns < 1 then Error "Server: max_conns must be >= 1"
  else if cfg.wbuf_hwm < 1 then Error "Server: wbuf_hwm must be >= 1"
  else if
    (match cfg.shard with
    | None -> false
    | Some (map, me) ->
      me < 0 || me >= Array.length map.Wire.sm_shards
      || Result.is_error (Wire.validate_shard_map map))
  then Error "Server: invalid shard configuration"
  else
    match validate_corpus cfg with
    | Error e -> Error e
    | Ok () -> (
      match bind_listen cfg.addr with
      | Error e -> Error e
      | Ok (listen_fd, actual_addr) ->
        (* a worker writing to a connection its client abandoned must
           not kill the process *)
        (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
         with Invalid_argument _ -> ());
        let ep =
          { ep_loop = Umrs_evloop.create ();
            ep_by_fd = Hashtbl.create 64; ep_by_id = Hashtbl.create 64;
            ep_comp_lock = Mutex.create (); ep_completions = [];
            ep_finish = Atomic.make false; ep_poller = None }
        in
        let srv =
          { cfg; listen_fd; actual_addr;
            shard_state = Atomic.make cfg.shard;
            advert_map = Atomic.make (Option.map fst cfg.shard);
            (* a server started sharded serves the piece its config
               pairs with its assignment, so its origin is the slice's
               own lo; unsharded corpora have no origin to declare *)
            corpus_ref =
              Atomic.make
                ( cfg.corpus, cfg.index,
                  Option.map
                    (fun (m, k) -> m.Wire.sm_shards.(k).Wire.sh_lo)
                    cfg.shard );
            corpus_gen = Atomic.make 0;
            queue = Jobqueue.create ~capacity:cfg.queue_capacity;
            stop = Atomic.make false;
            cache = Lru.create ~capacity:cfg.cache_capacity;
            cache_lock = Mutex.create ();
            n_conns = Atomic.make 0; n_live = Atomic.make 0;
            n_requests = Atomic.make 0;
            n_overloaded = Atomic.make 0; n_timeouts = Atomic.make 0;
            n_rejected = Atomic.make 0; n_cache_hits = Atomic.make 0;
            n_cache_misses = Atomic.make 0; n_worker_crashes = Atomic.make 0;
            n_queue_hwm = Atomic.make 0;
            workers_arr = [||];
            sup_lock = Mutex.create (); sup_cond = Condition.create ();
            sup_deaths = Queue.create (); sup_generation = 0;
            sup_stop = false; supervisor = None; ep; waited = false }
        in
        srv.workers_arr <-
          Array.init cfg.workers (fun slot -> Domain.spawn (worker_body srv slot));
        srv.supervisor <- Some (Thread.create supervisor_loop srv);
        ep.ep_poller <- Some (Thread.create (fun () -> poller_loop srv ep) ());
        Ok srv)

let shutdown srv =
  Atomic.set srv.stop true;
  Umrs_evloop.wakeup srv.ep.ep_loop

let wait srv =
  if not srv.waited then begin
    srv.waited <- true;
    (* 0. poll [stop] from an interruptible sleep rather than blocking
       straight away in a join: OCaml runs signal handlers in the main
       thread, and a main thread parked in [Thread.join] leaves a
       SIGTERM pending for over a second, while one waking from
       [sleepf] handles it within a tick *)
    while not (Atomic.get srv.stop) do
      (try Unix.sleepf 0.05 with Unix.Unix_error (Unix.EINTR, _, _) -> ())
    done;
    (* 1. stop admission of connections: the poller notices [stop] on
       its next tick (kick it awake) and closes the listener itself;
       data-plane requests shed to Overloaded from here on ([admit]
       checks [stop]). *)
    Umrs_evloop.wakeup srv.ep.ep_loop;
    (* 2. stop admission of jobs; workers drain every accepted job,
       answer it, then exit. A worker that dies mid-drain is replaced
       by the supervisor (the replacement finishes the drain), so the
       pool is joined until no death is pending and its generation is
       stable. *)
    Jobqueue.close srv.queue;
    let rec join_pool () =
      Mutex.lock srv.sup_lock;
      let pending = not (Queue.is_empty srv.sup_deaths) in
      let gen = srv.sup_generation in
      let snapshot = Array.copy srv.workers_arr in
      Mutex.unlock srv.sup_lock;
      if pending then begin
        (* let the supervisor process the report first: its join and
           ours on the same domain are both safe, but the replacement
           must land in [workers_arr] before we can see it *)
        (try Unix.sleepf 0.001
         with Unix.Unix_error (Unix.EINTR, _, _) -> ());
        join_pool ()
      end
      else begin
        Array.iter Domain.join snapshot;
        Mutex.lock srv.sup_lock;
        let stable =
          gen = srv.sup_generation && Queue.is_empty srv.sup_deaths
        in
        Mutex.unlock srv.sup_lock;
        if not stable then join_pool ()
      end
    in
    join_pool ();
    Mutex.lock srv.sup_lock;
    srv.sup_stop <- true;
    Condition.broadcast srv.sup_cond;
    Mutex.unlock srv.sup_lock;
    Option.iter Thread.join srv.supervisor;
    (* 3. every job is answered; its reply sits in the completion list
       or a write buffer.  Tell the poller to flush them all, close
       every connection, and exit. *)
    Atomic.set srv.ep.ep_finish true;
    Umrs_evloop.wakeup srv.ep.ep_loop;
    Option.iter Thread.join srv.ep.ep_poller;
    (* 4. responses are on the wire: flush telemetry so the JSONL sink
       holds whole records even if the process dies right after *)
    Telemetry.flush_metrics ();
    Telemetry.flush ();
    match srv.actual_addr with
    | Wire.Unix_sock path -> (try Sys.remove path with Sys_error _ -> ())
    | Wire.Tcp _ -> ()
  end

(* the probe is also what cluster node startup uses to clean a data
   directory after a SIGKILL left socket paths behind *)
let clear_stale_socket = clear_unix_path

let install_signal_handlers srv =
  let stop_now _ = shutdown srv in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_now);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_now);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore

let run cfg =
  match start cfg with
  | Error e -> Error e
  | Ok srv ->
    install_signal_handlers srv;
    wait srv;
    Ok ()
