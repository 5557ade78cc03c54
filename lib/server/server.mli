(** Concurrent corpus/evaluation server.

    Serves the suite's heavy artifacts over a socket: indexed corpus
    queries ({!Umrs_store.Query}), on-demand Lemma-2 graph
    construction, and routing-scheme evaluation
    ({!Umrs_routing.Registry} + {!Umrs_routing.Scheme.evaluate}),
    speaking the {!Wire} protocol over TCP or a Unix-domain socket.

    {2 Architecture}

    A single {e poller} thread owns the listening socket and every
    connection fd, all non-blocking, multiplexed through {!Evloop}
    (Linux epoll, [select] fallback elsewhere). The poller accepts,
    performs the hello exchange, accumulates per-connection read
    buffers, decodes complete frames, answers control-plane requests
    ([Ping], [Stats]) inline, and pushes everything else onto a bounded
    {!Jobqueue} consumed by a pool of {e worker domains} (OCaml 5
    [Domain.spawn]). A worker encodes its
    reply off-thread, queues it keyed by connection id (never fd, which
    the kernel recycles), and wakes the poller through an
    eventfd/self-pipe; the poller appends the frame to the connection's
    write buffer and flushes opportunistically, arming write interest
    only while bytes remain. A connection is a few KiB of buffer, not a
    thread — 10k+ concurrent connections are a Hashtbl, not a stack
    farm. Out-of-order completion is expected; clients match responses
    by request id.

    A {e supervisor} thread watches the worker pool. An exception that
    escapes a request handler answers that request [Rejected], kills
    its domain (never reused: a poisoned handler must not bleed state
    into later requests), and the supervisor joins the corpse and
    spawns a replacement — the pool size is an invariant, even during
    drain. Crashes are counted ({!worker_crashes}, telemetry counter
    [server.worker_crashes]).

    {2 Backpressure, deadlines, caching}

    A full job queue sheds load: the request is answered [Overloaded]
    immediately instead of blocking, so a saturated server stays
    responsive and never builds unbounded latency. A slow-reading
    client gets per-connection write backpressure too: above
    [wbuf_hwm] buffered reply bytes the poller stops reading that
    connection (the client feels TCP backpressure) and resumes below
    half the mark. Each request may carry a deadline; a job whose
    deadline expires while queued is answered [Timed_out] without being
    executed, and one that finishes past its deadline is answered
    [Timed_out] rather than returning a stale result late. Evaluation
    results are memoized in an {!Lru} cache keyed by (scheme name,
    graph name, {!Wire.graph_key}) — the key is the graph's full wire
    encoding, ports included, so two different graphs (even two that
    differ only in local port numbering) can never alias, not even by
    hash collision.

    Workers read the corpus through {!Umrs_store.Mmap} file mappings:
    every worker shares one mapping of the corpus and one of the index,
    record ranges come out of the page cache with a single [memcpy],
    and byte-for-byte identical results to the channel path (tested).

    {2 Shutdown}

    {!shutdown} (or SIGTERM/SIGINT after
    {!install_signal_handlers}) stops admission; every request already
    accepted is still executed and answered, workers drain the queue
    and exit, the poller flushes pending replies to their sockets
    (bounded by a grace period against unreachable peers) and closes
    every connection, and telemetry metrics are flushed
    ({!Telemetry.flush}). Per-worker {!Umrs_store.Query} handles are
    closed on the way out. *)

type config = {
  addr : Wire.addr;
  workers : int;             (** worker-domain count, >= 1 *)
  queue_capacity : int;      (** bounded job queue, >= 1 *)
  cache_capacity : int;      (** evaluation LRU entries, >= 1 *)
  corpus : string option;    (** corpus file to serve (optional) *)
  index : string option;     (** sidecar index (default: corpus + .umrsx) *)
  max_conns : int;           (** concurrent connections; excess are
                                 closed at accept, >= 1 *)
  handshake_timeout : float; (** seconds a fresh connection may take to
                                 send its hello; <= 0 disables *)
  wbuf_hwm : int;            (** buffered reply bytes per connection
                                 above which its reads pause (resume at
                                 half), >= 1 *)
  shard : (Wire.shard_map * int) option;
      (** when this node is one shard of a cluster: the shard map it
          serves under and its own index in [sm_shards]. The node then
          serves {e global} indices and ranks (validated against its key
          range, translated to its local slice), answers
          [Get_shard_map] inline, and rejects mis-routed requests with
          {!Wire.stale_shard_reject} so stale clients refresh. Runtime
          mutable through {!set_shard}. *)
  membership : (Wire.request -> Wire.outcome) option;
      (** a coordinator's handler for the membership control plane
          ([Join]/[Leave]/[Heartbeat]/[Reshard]/[Handoff_done]/
          [Cluster_status], and [Get_shard_map] when present). Runs on
          the poller thread — it must stay fast and must not
          block on the data plane. Escaped exceptions answer the
          request [Rejected]. *)
}

val default_config : Wire.addr -> config
(** 2 workers, queue 64, cache 128, no corpus, 10240 connections, 10 s
    handshake timeout, 256 KiB write high-water mark. Frames longer than
    {!Wire.default_max_frame} drop the connection, and [Sleep_ms]
    requests past 60000 ms are rejected. *)

type t

val start : config -> (t, string) result
(** Validate the corpus/index (when configured), bind and listen, spawn
    the poller and the worker pool. [Error] (not an
    exception) on a bad config, unbindable address, or a corpus that
    fails {!Umrs_store.Query.open_}. A TCP port of 0 is resolved by the
    kernel; see {!addr}. *)

val addr : t -> Wire.addr
(** The actual listening address ([Tcp] with the resolved port). *)

val worker_crashes : t -> int
(** Worker domains lost to escaped handler exceptions (each one was
    replaced by the supervisor). *)

(** {2 Runtime topology}

    A cluster node adopts new topology without restarting: when the
    coordinator bumps the shard map, the membership agent swaps the
    map (and, after a reshard or catch-up, the corpus piece) into the
    running server. Requests already in flight finish under whichever
    state they started with — during a shard split the donor keeps its
    superset piece until the narrowed map is applied, so both map
    versions answer correctly and no request window is lost. *)

val shard : t -> (Wire.shard_map * int) option
(** The shard map and own index this node currently serves under. *)

val set_shard :
  t -> ?advertise:bool -> (Wire.shard_map * int) option -> (unit, string) result
(** Replace the shard state. Validates like {!start}; [None] returns
    the node to unsharded serving. [advertise] (default [true]) also
    makes the new map the one [Get_shard_map] answers with; pass
    [false] when adopting a {e prospective} (commanded but not yet
    published) topology mid-handoff — the node then routes and issues
    stale verdicts under the new map while still advertising the last
    published one, so a refreshing client can never install a map the
    coordinator hasn't actually flipped. *)

val set_corpus : t -> corpus:string option -> ?index:string -> ?origin:int ->
  unit -> (unit, string) result
(** Swap the served corpus file. The new piece is validated by opening
    it before publication; each worker reopens its private
    {!Umrs_store.Query} handle before its next job, so the swap never
    interrupts a request in flight.

    [origin] is the global rank of the piece's first record when the
    corpus is a shard piece. It is snapshotted together with the path:
    a sharded request whose shard state disagrees with the origin of
    the piece actually open (a transient mid-handoff or mid-rejoin
    window — the two are swapped in separate steps) is answered with a
    stale-shard verdict the client can act on, never translated under
    the wrong origin and never surfaced as a bare out-of-range error.
    Omit it for a whole, unsharded corpus. *)

val clear_stale_socket : string -> (unit, string) result
(** The stale-socket probe [bind_listen] uses, exported for data-dir
    cleanup after a crash: unlink [path] only if it is a Unix socket no
    live server answers on. A connectable socket is an
    address-in-use error; a non-socket path is never deleted. *)

val shutdown : t -> unit
(** Request graceful drain; returns immediately. Idempotent. *)

val wait : t -> unit
(** Block until the server has fully drained and released every
    resource. Call once, after {!shutdown} or with handlers installed;
    with neither it blocks forever. *)

val install_signal_handlers : t -> unit
(** SIGTERM and SIGINT trigger {!shutdown}; SIGPIPE is ignored (a
    worker writing to a dead connection must not kill the process). *)

val run : config -> (unit, string) result
(** [start] + {!install_signal_handlers} + [wait] — the CLI serving
    loop. *)
