(** Nearest-rank quantiles over a sample, the one percentile
    implementation every bench shares.

    The smokes used to carry three private copies of this computation,
    each with its own off-by-one on small samples; this module replaces
    them and is tested against a naive sorted oracle (including n = 1,
    n = 2 and all-ties samples) in [test/test_bench.ml].

    Definition: for a sample of size [n] sorted ascending, the p-th
    percentile is the element at rank [max 1 (ceil (p/100 * n))]
    (1-based). So p = 0 is the minimum, p = 100 the maximum, and the
    median of a two-element sample is its smaller element. *)

type t
(** An immutable sorted sample. *)

val of_array : float array -> t
(** Copies and sorts; the argument is not modified.
    @raise Invalid_argument on an empty sample. *)

val of_list : float list -> t

val count : t -> int

val value : t -> float -> float
(** [value t p] for [p] in [[0, 100]].
    @raise Invalid_argument outside that range. *)

val p50 : t -> float
val p95 : t -> float
val p99 : t -> float
val min : t -> float
val max : t -> float
val mean : t -> float
val total : t -> float
(** Sum of all samples. *)

val summary : t -> string
(** One line, [n=5 mean=3.00 sd=1.58 min=1.00 p50=3.00 p99=5.00
    max=5.00]: the sample standard deviation has an [n - 1]
    denominator (0 for one sample), the percentiles are {!value}'s. *)
