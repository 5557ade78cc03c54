(** Cluster node agent: join, heartbeat, catch-up, reshard execution.

    Wraps one {!Umrs_server.Server} (started empty — no corpus, no
    shard state) and drives it through the membership protocol against
    a {!Coordinator}:

    {ol
    {- {b Join.} Register; learn the assigned range, donor and
       canonical checksum. Reuse the piece file already on disk iff
       its checksum matches ({e catch-up re-fetches only what is
       actually stale}); otherwise stream the range from the donor in
       pipelined batches, write it through the atomic-publication
       seam, verify, index. Then swap the piece into the server,
       ready-join, and adopt the published map.}
    {- {b Heartbeat.} A dedicated thread beats every [heartbeat]
       seconds. The ack carries the coordinator's topology version
       (a mismatch triggers a map refetch), a pending reshard command
       (executed off-thread so a long acquire never stops the beat),
       and the known/dead verdict — an unknown node re-joins from
       scratch.}
    {- {b Topology application.} Shard state is swapped {e before} the
       piece is narrowed: a superset piece answers correctly under the
       narrowed state (same low bound), the reverse would read past
       the piece's end — the node-side half of the double-serving
       invariant.}}

    Two {!Umrs_fault.Fault} points instrument the beat loop:
    [Heartbeat_loss] (fires before each send; non-[Pass] drops that
    beat) and [Partition] (fires once per iteration; non-[Pass] skips
    the whole coordinator exchange) — enough consecutive hits and a
    healthy node is declared dead, exercising the false-positive
    failover path deterministically. *)

val clean_dir : string -> (unit, string) result
(** Sweep a node data dir after a crash: stale Unix socket paths are
    probed with {!Umrs_server.Server.clear_stale_socket} (a socket a
    live server answers on is an error, never deleted) and [*.tmp]
    leftovers of interrupted atomic publications are removed. Creates
    the directory when missing. Called by {!start}, {!Coordinator.start}
    and {!Cluster.start}. *)

val piece_path : string -> int -> int -> string
(** [piece_path dir lo hi] — where this node stores records [lo, hi).
    The range lives in the name so a returning node can tell what it
    holds by listing its dir; whether the bytes are current is decided
    by checksum, never by the name. *)

type config = {
  coordinator : Umrs_server.Wire.addr;
  dir : string;                (* piece-file home *)
  listen : Umrs_server.Wire.addr;
  advertise : Umrs_server.Wire.addr option;
      (** address registered with the coordinator — what {e other}
          processes connect to; default: the resolved listen address *)
  heartbeat : float;
  workers : int;
  join_attempts : int;  (** retries before {!start} gives up joining *)
}

val default_config :
  coordinator:Umrs_server.Wire.addr -> dir:string ->
  listen:Umrs_server.Wire.addr -> config
(** 0.5 s heartbeat, 2 workers, 10 join attempts. *)

type t

val start : config -> (t, string) result
(** Sweep the dir, start the server, join (with catch-up) until ready,
    spawn the heartbeat thread. On a join that never succeeds the
    server is torn down and the error returned. *)

val server : t -> Umrs_server.Server.t
val self_addr : t -> Umrs_server.Wire.addr
val version : t -> int
(** Last coordinator topology version this node applied. *)

val range : t -> (int * int) option
(** The global record range currently held. *)

val checksum : t -> int64
val catchups : t -> int
(** Piece fetches completed (join catch-up + reshard acquisitions). *)

val last_error : t -> string option
(** Most recent internal failure (failed acquire, rejected handoff…) —
    the agent keeps running; this surfaces what it last struggled
    with. *)

val stop : ?leave:bool -> t -> unit
(** Stop beating and drain the server. [leave] (default [true]) sends
    a graceful [Leave] first; [~leave:false] abandons silently — the
    coordinator finds out via missed beats, which is exactly what a
    kill test wants. *)

val wait : t -> unit
(** Join the heartbeat thread and the server drain. *)
