(** Wire protocol of the corpus/evaluation service.

    The serving layer ({!Server}, {!Umrs_client}) speaks a
    length-prefixed binary protocol whose payloads are bit-packed with
    {!Umrs_bitcode.Bitbuf} — the same codec discipline as the corpus
    store, so two processes that encode the same value produce the same
    bytes. This module is the single definition both sides link
    against; neither re-implements any field layout.

    {2 Framing}

    A connection starts with a 10-byte hello in each direction: the
    8-byte magic ["UMRSSRVC"] then the protocol version as a 16-bit
    little-endian integer. After the exchange, each message is a frame:

    {v 4 bytes   payload byte length N (little-endian, >= 0)
       N bytes   payload (a Bitbuf byte image, padding bits zero) v}

    {2 Payloads}

    Integers are written MSB-first within Bitbuf fields ([u8]/[u16]/
    [u32]); 64-bit quantities are two 32-bit halves, high first; floats
    are their IEEE-754 bit image; strings are a [u32] length plus one
    byte per character. A request payload is

    {v req_id:u32  deadline_ms:u32  opcode:u8  body v}

    and a response payload is

    {v req_id:u32  status:u8  body v}

    with status 0 = reply (body is the response), 1 = rejected (body is
    a message string: the request was well-formed but unservable — out
    of range, unknown scheme, no corpus attached), 2 = overloaded (the
    bounded job queue was full; no body), 3 = timed out (the request's
    deadline expired before or during execution; no body). A frame that
    does not decode is a protocol violation: the receiver drops the
    connection rather than guessing. *)

open Umrs_core
open Umrs_graph

(** {1 Addresses} *)

type addr =
  | Unix_sock of string        (** Unix-domain socket path *)
  | Tcp of string * int        (** host, port *)

val pp_addr : Format.formatter -> addr -> unit
val addr_to_string : addr -> string

(** {1 Shard maps}

    A cluster serves one corpus split into contiguous key ranges. The
    shard map is the routing contract every node and client shares: the
    corpus identity (so a client can detect it is talking to the wrong
    corpus entirely) plus, per shard, the global record-rank range
    [\[sh_lo, sh_hi)], the boundary key (the row-major entries of record
    [sh_lo] — shards are ordered by it), and the endpoints that serve
    the range. [sm_version] increments whenever the topology changes;
    servers embed their version in stale-shard rejections so clients
    refresh instead of erroring. *)

type shard = {
  sh_lo : int;                 (** first global rank served, inclusive *)
  sh_hi : int;                 (** one past the last global rank *)
  sh_key : int array;          (** row-major entries of record [sh_lo] *)
  sh_primary : addr;
  sh_replicas : addr list;     (** failover targets, in preference order *)
}

type shard_map = {
  sm_version : int;            (** topology version, monotonically increasing *)
  sm_corpus_version : int;     (** {!Umrs_store.Corpus.header} version field *)
  sm_variant : Umrs_core.Canonical.variant;
  sm_p : int;
  sm_q : int;
  sm_d : int;
  sm_count : int;              (** total records across all shards *)
  sm_checksum : int64;         (** checksum of the unsharded corpus *)
  sm_shards : shard array;     (** ordered by [sh_lo]; contiguous cover *)
}

(** {1 Cluster membership}

    Protocol v5: independently started server processes register into a
    coordinator's versioned shard map over the same wire protocol the
    data plane uses. A node announces itself with [Join] (first with
    [jn_ready = false] to learn its assignment, then [jn_ready = true]
    once its corpus piece matches the coordinator's canonical checksum),
    beats with [Heartbeat], and receives topology work — a range to
    acquire from a donor — piggybacked on the heartbeat reply.
    [Reshard] and [Cluster_status] are operator requests. *)

type member_state =
  | Joining                    (** announced, piece not yet verified *)
  | Ready                      (** serving; eligible for the map *)
  | Dead                       (** missed too many heartbeats *)

type member_info = {
  mi_addr : addr;
  mi_shard : int;              (** assigned shard, [-1] when unassigned *)
  mi_state : member_state;
  mi_in_map : bool;            (** listed in the published map *)
  mi_primary : bool;           (** head of its shard's endpoint group *)
  mi_checksum : int64;         (** piece checksum last reported *)
  mi_beat_age : float;         (** seconds since the last heartbeat *)
}

type node_cmd =
  | Cmd_acquire of { aq_lo : int; aq_hi : int; aq_donor : addr;
                     aq_map : shard_map option }
      (** stream global ranks [\[aq_lo, aq_hi)] from [aq_donor] into a
          local piece, then report [Handoff_done]. [aq_map] is the
          {e prospective} post-flip topology: the node adopts it the
          moment the piece is local — {e before} reporting — so a
          client that reaches it under the flipped map never catches
          it serving the old one. Its version is a floor (the real
          flip may land higher); the node syncs the true map after its
          handoff is accepted. *)

type reshard_op =
  | Split of int               (** cut shard [k] at its midpoint *)
  | Merge of int               (** fold shard [k+1] into shard [k] *)

(** {1 Requests}

    [Ping] and [Stats] are control-plane: the server answers them from
    the connection reader without queueing, so they respond even when
    the worker pool is saturated. Everything else is data-plane and
    subject to backpressure. [Sleep_ms] occupies a worker for the given
    time — the controllable-work primitive load tests are built on.
    The membership requests are control-plane too: a saturated data
    plane must never delay a heartbeat into a false death verdict. *)

type request =
  | Ping of int                (** echo the nonce *)
  | Stats                      (** server counters and queue depth *)
  | Corpus_info                (** header of the served corpus *)
  | Nth of int                 (** {!Umrs_store.Query.nth} *)
  | Mem of Matrix.t            (** {!Umrs_store.Query.mem} *)
  | Rank of Matrix.t           (** {!Umrs_store.Query.rank} *)
  | Range_prefix of int array  (** {!Umrs_store.Query.range_prefix} *)
  | Cgraph_of of int           (** {!Umrs_store.Query.cgraph} *)
  | Evaluate of { scheme : string; graph_name : string; graph : Graph.t }
      (** {!Umrs_routing.Registry.find} + {!Umrs_routing.Scheme.evaluate} *)
  | Sleep_ms of int            (** hold a worker for this many ms *)
  | Get_shard_map              (** the cluster topology this node belongs
                                   to; control-plane, answered inline *)
  | Join of { jn_addr : addr; jn_ready : bool; jn_checksum : int64 }
      (** register [jn_addr]; [jn_checksum] is the local piece checksum
          (0 when no piece is held yet) *)
  | Leave of addr              (** graceful departure *)
  | Heartbeat of { hb_addr : addr; hb_version : int; hb_checksum : int64 }
      (** liveness beat carrying the map version the node has applied *)
  | Reshard of reshard_op      (** operator: start an online reshard *)
  | Handoff_done of { hd_addr : addr; hd_lo : int; hd_hi : int;
                      hd_key : int array; hd_checksum : int64 }
      (** a commanded acquire finished; [hd_key] is the boundary key of
          rank [hd_lo] *)
  | Cluster_status             (** operator: membership table snapshot *)

val opcode : request -> int
val opcode_name : int -> string

type server_stats = {
  st_connections : int;     (** connections accepted since start *)
  st_requests : int;        (** frames decoded (all opcodes) *)
  st_overloaded : int;      (** requests shed by the bounded queue *)
  st_timeouts : int;        (** requests whose deadline expired *)
  st_rejected : int;        (** well-formed but unservable requests *)
  st_cache_hits : int;      (** evaluation LRU hits *)
  st_cache_misses : int;    (** evaluation LRU misses *)
  st_queue_depth : int;     (** jobs waiting right now *)
  st_queue_capacity : int;
  st_workers : int;
  st_draining : bool;       (** shutdown requested, drain in progress *)
  st_live_conns : int;      (** connections open right now *)
  st_cache_evictions : int; (** evaluation LRU capacity evictions *)
  st_loop_wakeups : int;    (** poller wakeups (eventfd/self-pipe) *)
  st_queue_hwm : int;       (** deepest the job queue has been *)
}

(** {1 Responses}

    A graph of constraints travels as its (normalized) matrix only:
    {!Umrs_core.Cgraph.of_matrix} is deterministic, so the receiver
    rebuilds an identical structure and the frame stays a few bytes
    instead of carrying an adjacency dump. *)

type response =
  | R_pong of int
  | R_stats of server_stats
  | R_header of Umrs_store.Corpus.header
  | R_matrix of Matrix.t
  | R_found of bool
  | R_rank of int
  | R_range of int * int
  | R_slice of { sl_version : int; sl_lo : int; sl_hi : int }
      (** a shard's answer to [Range_prefix]: its slice of the global
          range, stamped with the map version it was computed under.
          Range scatters have no rank for the server to validate, so
          the version is the only way a client can tell that a reply
          was produced under a different topology than the one it
          scattered with — a slice from the future means the span the
          client chose may no longer cover every matching record. *)
  | R_graph of Cgraph.t
  | R_evaluation of Umrs_routing.Scheme.evaluation
  | R_slept of int
  | R_shard_map of shard_map
  | R_joined of { jr_shard : int; jr_lo : int; jr_hi : int; jr_donor : addr;
                  jr_checksum : int64; jr_version : int;
                  jr_map : shard_map option }
      (** assignment for a [Join]: the shard index and global range the
          node must hold, a donor endpoint that can stream it, the
          canonical checksum the piece must match, the coordinator's
          topology version, and the published map when one exists *)
  | R_heartbeat of { rh_version : int; rh_known : bool;
                     rh_cmd : node_cmd option }
      (** [rh_known = false] tells a node the coordinator no longer
          counts it a member (it was declared dead) — it must re-join *)
  | R_status of { cs_version : int; cs_published : bool;
                  cs_members : member_info list }
  | R_accepted of string       (** generic acknowledgement (leave,
                                   reshard start, handoff) *)

type outcome =
  | Reply of response
  | Rejected of string
  | Overloaded
  | Timed_out

(** {1 Codecs}

    Encoders never fail on values their types admit (dimensions beyond
    16 bits raise [Invalid_argument], matching the corpus store's
    limits). Decoders raise [Invalid_argument] on any byte sequence
    that is not a valid payload; callers treat that as a protocol
    violation, not data. *)

val protocol_version : int

val hello : unit -> Bytes.t
(** The 10-byte hello each side sends on connect. *)

val hello_bytes : int

val check_hello : Bytes.t -> (unit, [ `Bad_magic | `Bad_version of int ]) result

val encode_request : id:int -> deadline_ms:int -> request -> Bytes.t
val decode_request : Bytes.t -> int * int * request
(** [(id, deadline_ms, request)]. *)

val encode_outcome : id:int -> outcome -> Bytes.t
val decode_outcome : Bytes.t -> int * outcome

(** {1 Shard-map codec and routing}

    The routing helpers live here — next to the codec — so the server's
    bounds validation and the cluster client's dispatch share one
    definition of who owns what. All of them assume a map that passed
    {!validate_shard_map}. *)

val shard_map_to_bytes : shard_map -> Bytes.t
val shard_map_of_bytes : Bytes.t -> shard_map
(** Standalone Bitbuf image of a map — the payload the cluster's
    on-disk format and the [R_shard_map] response both embed. The
    decoder raises [Invalid_argument] on malformed bytes. *)

val validate_shard_map : shard_map -> (unit, string) result
(** Structural invariants: at least one shard, ranges contiguous from 0
    to [sm_count] with every shard non-empty, boundary keys strictly
    increasing with arity [p*q]. *)

val corpus_header_of_map : shard_map -> Umrs_store.Corpus.header
(** The identity of the unsharded corpus the map was cut from. *)

val matrix_key : Matrix.t -> int array
(** Row-major entries — the key by which records are ordered. *)

val route_index : shard_map -> int -> int
(** Shard owning global rank [i]; raises [Invalid_argument] when [i] is
    outside [\[0, sm_count)]. *)

val route_key : shard_map -> int array -> int
(** Shard owning the given full key: the largest shard whose boundary
    key is [<=] the key. Keys below every boundary route to shard 0,
    whose membership answer is correctly [false]. *)

val route_matrix : shard_map -> Matrix.t -> int
(** [route_key] on {!matrix_key}. *)

val route_prefix : shard_map -> int array -> int * int
(** Inclusive shard span [(a, b)] that can hold records matching the
    prefix: [b] is the largest shard whose boundary key truncated to
    the prefix length is [<=] the prefix (the anchor), [a] the largest
    whose truncated key is strictly [<]. Always [a <= b]. *)

(** {2 Stale-shard redirects}

    [stale_shard_reject ~version] is the structured [Rejected] a shard
    server sends for a well-formed request outside its key range —
    evidence the client routed with an outdated map. The client parses
    the server's map version back out with [stale_shard_version]
    ([None] for ordinary rejection messages), refreshes, and re-routes
    once. *)

val stale_shard_msg : version:int -> string
val stale_shard_reject : version:int -> outcome
val stale_shard_version : string -> int option

(** {1 Frames} *)

val default_max_frame : int
(** 16 MiB — no legitimate payload comes close; larger length prefixes
    are treated as protocol violations before any allocation. *)

val write_frame : ?flush:bool -> out_channel -> Bytes.t -> unit
(** Length prefix + payload, then flush (default). [~flush:false] lets
    a pipelining sender coalesce a burst of frames into one flush. *)

val read_frame : ?max_bytes:int -> in_channel -> Bytes.t option
(** [None] on EOF at a frame boundary; raises [Invalid_argument] on an
    oversized or negative length prefix, [End_of_file] on a frame cut
    mid-payload. *)

(** {1 Graph identity} *)

val graph_key : Graph.t -> string
(** The graph's full wire encoding as an immutable string — the
    evaluation cache key component identifying the topology (ports
    included). The complete bytes, not a hash: equal keys mean equal
    graphs, so a cache hit can never serve another graph's result. *)

val graph_digest : Graph.t -> int64
(** FNV-1a 64 over {!graph_key} — a compact identifier for logs and
    telemetry. Not collision-resistant; never used for cache lookups. *)
