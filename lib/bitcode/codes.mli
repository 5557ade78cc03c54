(** Integer codes over bit buffers.

    Each [write_*] has a matching [read_*] (round-trip tested), plus a
    [*_length] giving the code length in bits without materializing it —
    used by the memory accountants. *)

val bits_needed : int -> int
(** [bits_needed x] is the number of bits of the binary representation
    of [x >= 0]: 0 for 0, [floor(log2 x) + 1] otherwise. *)

val ceil_log2 : int -> int
(** [ceil_log2 x] for [x >= 1]: number of bits needed to distinguish [x]
    values, i.e. [ceil(log2 x)] (0 when [x = 1]). *)

(** {1 Fixed width} *)

val write_fixed : Bitbuf.t -> int -> width:int -> unit
val read_fixed : Bitbuf.reader -> width:int -> int

(** {1 Unary} — [x >= 0] as [x] ones then a zero. *)

val write_unary : Bitbuf.t -> int -> unit
val read_unary : Bitbuf.reader -> int
(** Raises [Invalid_argument] if the buffer ends before the
    terminating zero. *)

val unary_length : int -> int

(** {1 Elias gamma} — [x >= 1], [2 floor(log2 x) + 1] bits. *)

val write_gamma : Bitbuf.t -> int -> unit
val read_gamma : Bitbuf.reader -> int
val gamma_length : int -> int

(** {1 Elias delta} — [x >= 1], asymptotically [log x + 2 log log x]. *)

val write_delta : Bitbuf.t -> int -> unit
val read_delta : Bitbuf.reader -> int
val delta_length : int -> int

(** {1 Rice / Golomb-power-of-two} — [x >= 0] with divisor [2^k]. *)

val write_rice : Bitbuf.t -> int -> k:int -> unit
val read_rice : Bitbuf.reader -> k:int -> int
val rice_length : int -> k:int -> int

(** {1 Fibonacci / Zeckendorf} — [x >= 1]; a universal code ending in
    "11", competitive with delta for mid-range values. *)

val write_fibonacci : Bitbuf.t -> int -> unit
val read_fibonacci : Bitbuf.reader -> int
val fibonacci_length : int -> int

(** {1 Bounded integers} — [x] in [0 .. bound-1] in [ceil_log2 bound]
    bits (the paper's "[log n] bits per label"). *)

val write_bounded : Bitbuf.t -> int -> bound:int -> unit
val read_bounded : Bitbuf.reader -> bound:int -> int
val bounded_length : bound:int -> int
