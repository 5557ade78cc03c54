(** In-process cluster supervisor.

    Splits one corpus into contiguous key-range pieces
    ({!Umrs_store.Shard.split}), builds and persists the shard map, and
    runs one {!Umrs_server.Server} per node — primary plus [replicas]
    failover nodes per shard group, each serving the {e same} piece
    under the same map slice, every one listening on its own
    Unix-domain socket under [dir]. Failover is therefore a pure
    client-side endpoint change; no data moves when a node dies.

    The supervisor runs the servers in the calling process (each server
    owns its own poller thread and worker domains). That is what the
    differential tests, the chaos storms and the bench need — and the
    CLI gets a real multi-process topology for free by running one
    supervisor per machine over the same shard map. *)

type t

val start :
  corpus:string -> shards:int -> dir:string -> ?replicas:int ->
  ?workers:int -> ?queue_capacity:int -> ?cache_capacity:int ->
  ?map_version:int -> unit -> (t, string) result
(** Split [corpus] into [shards] pieces under [dir], write the shard
    map to [dir/cluster.umrsm], and start [shards * (replicas + 1)]
    servers (default [replicas = 0], 1 worker domain each). [dir] is
    first swept with {!Membership.clean_dir}, so socket paths and
    publication tempfiles left by a SIGKILLed predecessor never block
    the restart. On any node-start failure every already-started node
    is shut down before the error returns. [replicas < 0] raises
    [Invalid_argument]. *)

val map : t -> Umrs_server.Wire.shard_map
val map_path : t -> string
(** The persisted {!Shard_map} file under [dir]. *)

val addr : t -> shard:int -> role:int -> Umrs_server.Wire.addr
(** Role 0 is the primary, role [j > 0] replica [j-1]. *)

val shard_count : t -> int
val replica_count : t -> int

val live_nodes : t -> int
(** Nodes currently running (started and not yet killed/drained). *)

val kill : t -> shard:int -> role:int -> unit
(** Gracefully stop one node (drain + join) — the node-loss primitive
    chaos tests use. Idempotent. *)

val kill_primary : t -> int -> unit
(** [kill] role 0 of the given shard. *)

val worker_crashes : t -> int
(** Total worker-domain crashes across all nodes, including nodes
    already stopped. *)

val shutdown : t -> unit
(** Request graceful drain of every live node; returns immediately. *)

val wait : t -> unit
(** Block until every live node has fully drained. *)
