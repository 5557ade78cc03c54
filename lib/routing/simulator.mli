(** Synchronous store-and-forward network simulator.

    Executes a routing function as an actual packet-switched network:
    one packet may cross each arc per round; contending packets queue
    FIFO (ties broken by packet id). This turns the paper's static
    model into the point-to-point communication network it describes,
    and measures congestion effects that path lengths alone miss. *)

open Umrs_graph

type packet_result = {
  src : Graph.vertex;
  dst : Graph.vertex;
  hops : int;             (** edges traversed *)
  delivered_at : int;     (** round of arrival (>= hops under contention) *)
}

type stats = {
  packets : int;
  delivered : int;
  rounds : int;             (** rounds until the last delivery *)
  total_hops : int;
  max_queue : int;          (** largest arc queue observed *)
  max_arc_load : int;       (** total traversals of the busiest arc *)
  results : packet_result array;
}

val run :
  ?round_limit:int ->
  Routing_function.t ->
  pairs:(Graph.vertex * Graph.vertex) list ->
  stats
(** Injects one packet per pair at round 0 and runs to completion or
    [round_limit] (default [16 * order + 16 * #pairs]). Raises
    [Invalid_argument] on a [src = dst] pair. *)

val all_pairs : ?round_limit:int -> Routing_function.t -> stats
(** Total-exchange workload: every ordered pair. *)

val random_pairs :
  ?round_limit:int -> Random.State.t -> Routing_function.t -> count:int -> stats
(** [count] uniform random (src <> dst) pairs. *)

val permutation_traffic :
  ?round_limit:int -> Random.State.t -> Routing_function.t -> stats
(** The classical parallel-computing workload: every vertex sends one
    packet, destinations form a uniform random derangement-ish
    permutation (fixed points are skipped). *)

(** {1 Failure injection} *)

val run_flaky :
  ?round_limit:int ->
  Random.State.t ->
  loss:float ->
  Routing_function.t ->
  pairs:(Graph.vertex * Graph.vertex) list ->
  stats
(** Transient link faults: each arc crossing independently fails with
    probability [loss] (the packet retries next round). Measures the
    delay inflation of an unreliable network; with [loss < 1] every
    packet is eventually delivered (within the round limit). The
    boundaries behave as the probabilities say: [loss = 0.0] reproduces
    {!run} exactly (same seed irrelevant — no draw changes a crossing),
    and [loss = 1.0] delivers nothing, spinning until [round_limit]
    (mandatory there unless [pairs] has only same-vertex traffic).
    Raises [Invalid_argument] outside [0 <= loss <= 1]. *)

val run_with_dead_links :
  ?round_limit:int ->
  dead:(Graph.vertex * Graph.vertex) list ->
  Routing_function.t ->
  pairs:(Graph.vertex * Graph.vertex) list ->
  stats
(** Permanent link failures, invisible to the (static) routing
    function: a packet forwarded onto a dead edge is dropped and stays
    undelivered ([delivered_at = -1]). Quantifies how brittle a routing
    function is to topology drift. *)

val run_hot_potato :
  ?round_limit:int ->
  Random.State.t ->
  Routing_function.t ->
  pairs:(Graph.vertex * Graph.vertex) list ->
  stats
(** Deflection ("hot potato") switching: per round each arc still
    carries at most one packet, but a packet that loses arbitration is
    {e deflected} onto a uniformly random free out-arc of its current
    vertex instead of queueing (it waits only when every out-arc is
    taken). The routing function re-evaluates at the new position, so
    destination-addressed schemes recover. Hops inflate instead of
    queues; livelock is possible and shows up as undelivered packets at
    the round limit — both phenomena this mode exists to measure. *)

val mean_delay : stats -> float
(** Average delivery round over delivered packets. *)

val delays : stats -> float array
(** Delivery rounds of the delivered packets (empty if none). *)

val delay_summary : stats -> string
(** {!Umrs_bench.Quantile.summary} of the delivery rounds, or
    ["(no deliveries)"]. *)

val pp_stats : Format.formatter -> stats -> unit
