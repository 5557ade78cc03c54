(** Generalized matrices of constraints (Definition 1).

    A [p x q] integer matrix [M = (m_ij)] such that the entries of row
    [i] lie in [{1 .. |union_j {m_ij}|}] — i.e. each row uses a prefix
    alphabet [{1..k_i}] where [k_i] is its number of distinct values.
    Together with vertex sets [A], [B] and arc-naming functions
    [phi_i], such a matrix constrains every routing function of stretch
    at most [s]: the message [a_i -> b_j] must leave [a_i] on the port
    labelled [m_ij]. *)

type t = private {
  p : int;            (** rows = number of constrained vertices *)
  q : int;            (** columns = number of target vertices *)
  entries : int array array;  (** [entries.(i).(j)] is [m_{i+1,j+1}], 1-based values *)
}

val create : int array array -> t
(** Validates shape (rectangular, nonempty) and the prefix-alphabet
    property of every row. *)

val create_relaxed : int array array -> t
(** Validates shape and positivity only — accepts rows whose values are
    not a prefix alphabet (useful as input to
    {!Canonical.canonical}, whose row relabelling restores the
    property). *)

val get : t -> int -> int -> int
(** [get m i j], 0-based, returns the 1-based entry value. *)

val dims : t -> int * int

val row_alphabet : t -> int -> int
(** Number of distinct values in a row (= the row's alphabet size
    [k_i], by the prefix property). *)

val distinct_values : int array -> int array
(** The distinct values of a row (any ints), ascending: a sorted copy
    with its runs collapsed, [O(q log q)] on a row of [q]. *)

val max_entry : t -> int

val equal : t -> t -> bool

val compare_lex : t -> t -> int
(** Row-major lexicographic comparison — the total order whose minimum
    plays the role of the paper's minimal "index".

    {b Stable record-ordering contract.} This order is load-bearing
    beyond canonicalization: corpus files ({!Umrs_store.Corpus}) store
    their records in strictly increasing [compare_lex] order, and the
    sidecar query index ({!Umrs_store.Query}) binary-searches that
    order, so [rank]/[mem]/range answers are only correct if this
    comparison never changes. Treat it as part of the on-disk format:
    any change requires a corpus schema-version bump. *)

val compare_lex_prefix : int array -> t -> int
(** [compare_lex_prefix prefix m] compares a row-major entry prefix
    [m_11, m_12, ...] (length [<= p*q], 1-based values) against the
    first entries of [m], lexicographically. All matrices sharing a
    given prefix form a contiguous run of the [compare_lex] order — the
    fact behind the query engine's range-by-prefix lookups. Raises
    [Invalid_argument] if [prefix] is longer than [p*q]. *)

val index : t -> base:int -> Bignat.t
(** The paper's index: the row-major word [m_11 m_12 ... m_pq] read as
    digits [m_ij - 1] in the given base (must exceed [max_entry m - 1]).
    [compare_lex] agrees with comparing indices at any valid base. *)

val permute_rows : t -> Umrs_graph.Perm.t -> t
(** [permute_rows m sigma]: row [i] of the result is row [sigma(i)] of
    [m]. Result may be relaxed (no property change: rows move intact). *)

val permute_cols : t -> Umrs_graph.Perm.t -> t

val permute_row_entries : t -> int -> Umrs_graph.Perm.t -> t
(** [permute_row_entries m i pi] replaces value [v] by [pi(v-1)+1]
    throughout row [i]; [pi] must be a permutation of the row's
    alphabet [{0..k_i-1}]. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string
(** Compact one-line form like ["[1 2; 1 1]"]. *)

val of_string : string -> t
(** Parses the [to_string] format (relaxed validation). *)
