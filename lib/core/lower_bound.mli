(** Theorem 1 — the headline numbers.

    For [0 < eps < 1] and order [n], choose [p = floor(n^eps)] routers,
    [q = Theta(n)] targets and middle-degree [d = Theta(n^(1-eps))] so
    that the graph of constraints fits in [n] vertices; Lemma 1 +
    Equation (1) then force the [p] constrained routers to hold
    [Omega(n log n)] bits {e each}, for every routing function of
    stretch [< 2] — matching the [O(n log n)] routing-table upper
    bound, i.e. tables cannot be locally compressed. *)

type params = {
  n : int;
  eps : float;
  p : int;   (** [floor(n^eps)], the number of constrained routers *)
  q : int;   (** targets *)
  d : int;   (** middle fan-out *)
  order_unpadded : int;  (** [p(d+1) + q <= n] *)
}

val choose_params : n:int -> eps:float -> params
(** [p = max 2 floor(n^eps)], [q = floor(n/2)],
    [d = max 2 floor((n - p - q) / p)]. Raises [Invalid_argument]
    unless [0 < eps < 1] and [n >= 16], and when the construction does
    not fit in [n] vertices ([order_unpadded > n]). *)

type bound = {
  params : params;
  bits_information : float;  (** [log2 |dM(p,q)|] by Lemma 1 (log space) *)
  bits_side : float;         (** [MB + MC + O(log n)] *)
  bits_total : float;        (** net lower bound on [sum_A MEM] *)
  bits_per_router : float;   (** [bits_total / p] *)
  table_upper_bits : float;  (** [(n-1) ceil(log2 n)] — tables on [G_n] *)
  ratio : float;             (** per-router lower bound / table upper bound *)
}

val theorem1 : n:int -> eps:float -> bound

val sweep : ns:int list -> epss:float list -> bound list
(** Cartesian sweep, skipping infeasible combinations. *)

val pp_bound : Format.formatter -> bound -> unit

(** {1 The companion global bound}

    Table 1's global column for [1 <= s < 2] cites the authors' PODC'96
    result (reference [6]): universal schemes of stretch below 2 use
    [Omega(n^2)] bits in total. The same machinery proves it: take
    [d = 2] and [p = q = Theta(n)] — the graph of constraints still
    fits in [n] vertices ([p(d+1) + q = 4p <= n]), and Lemma 1 gives
    [log |2M(p,q)| >= pq - p - p log p - q log q = Omega(n^2)] bits
    spread over the [p] constrained routers. *)

type global_bound = {
  g_n : int;
  g_p : int;                  (** [= q = floor(n/4)] *)
  g_bits_total : float;       (** net global lower bound (bits) *)
  g_table_global_bits : float;(** [n (n-1) ceil(log2 n)] tables upper bound *)
  g_ratio : float;            (** total bound / n^2 — the [Omega(n^2)] constant *)
}

val global_theorem : n:int -> global_bound
(** Requires [n >= 16]. *)

val global_sweep : ns:int list -> global_bound list
val pp_global : Format.formatter -> global_bound -> unit
