(** Cluster coordinator: membership, failure detection, resharding.

    One process owns the topology. It serves the {e full} unsharded
    corpus through a normal {!Umrs_server.Server} (so it can answer any
    record fetch and is always a valid donor), and handles the
    membership control plane through the server's [membership] hook:

    {ul
    {- {b Join.} An independently started node registers, is assigned
       the least-populated shard, and is told the global record range
       it must hold, a donor that can stream it, and the {e canonical
       checksum} the piece must match. A ready-join whose checksum
       disagrees is refused — a node can never serve bytes the
       coordinator cannot vouch for.}
    {- {b Failure detection.} A detector thread declares dead any
       member silent for [miss_limit] heartbeat intervals: it leaves
       every owners list, a dead primary's first replica is promoted,
       and the topology version bumps so clients and nodes migrate.}
    {- {b Online resharding.} [Split k] halves shard [k]'s range: a
       node poached from the best-staffed group (and unlisted from the
       map {e first}, so no client routes to it mid-swap) streams the
       upper half, reports [Handoff_done], and the map flips — the
       donor keeps its superset piece until the next version, so both
       map versions answer correctly throughout (double-serving).
       [Merge k] collapses shards [k] and [k+1]: group [k] acquires
       the union range and the first finisher flips the map; laggards
       re-enter through their own handoff, orphans re-join fresh.}
    {- {b Catch-up verification.} The canonical checksum of any range
       is computed from the coordinator's own corpus (the fold equals
       a piece file's header checksum), cached per range — whether a
       returning node's piece is current is never the node's opinion.}}

    Every topology change bumps the version; a map is {e published}
    (atomically, through the {!Umrs_fault.Io} seam) only while every
    range has at least one ready owner. On restart the coordinator
    adopts the ranges of an existing map file, so a resharded topology
    survives it; owners repopulate as nodes re-join. *)

type config = {
  dir : string;          (** map file home (swept by
                             {!Membership.clean_dir} on start) *)
  corpus : string;       (** the full unsharded corpus to serve *)
  listen : Umrs_server.Wire.addr;
  shards : int;          (** initial shard count when no map file exists *)
  heartbeat : float;     (** expected beat interval, seconds *)
  miss_limit : int;      (** missed beats before a node is declared dead *)
  workers : int;
}

val default_config :
  dir:string -> corpus:string -> listen:Umrs_server.Wire.addr -> config
(** 2 shards, 0.5 s heartbeat, 4 missed beats, 2 workers. *)

type t

val start : config -> (t, string) result
(** Open the corpus, adopt or cut the initial topology, start the
    server with the membership hook, spawn the detector. [Error] on a
    bad config, an unreadable corpus, a map file describing a
    different corpus, or an unbindable address. *)

val server : t -> Umrs_server.Server.t
val addr : t -> Umrs_server.Wire.addr
(** The resolved listening address (TCP port 0 resolved). *)

val map_path : t -> string
val version : t -> int
val published : t -> Umrs_server.Wire.shard_map option
val deaths : t -> int
(** Members declared dead (missed beats or explicit leave). *)

val promotions : t -> int
(** Times a dead primary's replica took over its shard. *)

val shutdown : t -> unit
val wait : t -> unit
