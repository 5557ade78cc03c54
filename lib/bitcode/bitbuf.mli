(** Append-only bit buffers and sequential bit readers.

    The paper measures routing memory in bits (its [MEM] is Kolmogorov
    complexity relative to a fixed coding). Every scheme in this suite
    encodes its per-router state into a [Bitbuf.t]; [length] is the
    exact bit count charged to that router. Decoders use [reader].

    {2 Layout}

    Bit [i] of the stream is bit [i mod 8] of byte [i / 8], least
    significant first. A field written by {!add_bits} goes in most
    significant bit first, so its leading bit takes the lowest stream
    position. Bits past {!length} are zero, in the last partly filled
    byte and in the spare capacity alike: every writer relies on this
    to OR bits into a byte without clearing it first, and {!to_bytes}
    returns it as the zero padding. The corpus records
    ({!Umrs_store.Corpus}) and the wire frames of the serving layer are
    these byte images, so the layout is a file and protocol format, not
    an implementation detail.

    {2 Cost}

    {!add_bits} writes a field of up to 55 bits with one bounds-checked
    64-bit read-modify-write: its bits, reversed into stream order a
    byte at a time through a 256-entry table, are shifted to the stream
    offset and ORed into the little-endian word that starts at byte
    [length / 8]. A wider field goes as two such writes. The capacity
    keeps 8 bytes of slack past the last byte in use, so that word is
    always inside the buffer, and each field costs one capacity check.
    {!read_bits} cuts a field at byte boundaries and moves each piece
    with one shift out of a byte: at most [1 + (width + 6) / 8] pieces.
    Neither allocates or calls a [Stdlib] function per field, which
    matters because dune's dev profile compiles with [-opaque] and
    every such call would be a real call. None of this is the layout
    above, which has not changed with the writer. {!add_bit},
    {!read_bit} and {!get} touch one byte. {!append}, {!concat},
    {!to_bool_array}, {!of_bool_array} and {!pp} go a bit at a time. *)

type t

val create : unit -> t

val length : t -> int
(** Number of bits written so far. *)

val add_bit : t -> bool -> unit

val add_bits : t -> int -> width:int -> unit
(** [add_bits b x ~width] appends the [width] low bits of [x], most
    significant first. Requires [0 <= width <= 62] and [x] to fit. *)

val append : t -> t -> unit
(** [append dst src] appends all bits of [src] to [dst]. *)

val to_bool_array : t -> bool array

val of_bool_array : bool array -> t

val to_bytes : t -> Bytes.t
(** The packed byte image: [ceil(length/8)] bytes where bit [i] of the
    buffer is bit [i mod 8] (LSB first) of byte [i / 8]; padding bits
    of the last byte are zero. The on-disk representation used by the
    corpus store ({!Umrs_store.Corpus}). *)

val of_bytes : Bytes.t -> len:int -> t
(** Inverse of {!to_bytes} given the bit length: reads [len] bits from
    the packed image (padding bits are ignored). Raises
    [Invalid_argument] if [len] exceeds [8 * Bytes.length]. *)

val concat : t list -> t

(** {1 Reading} *)

type reader

val reader : t -> reader

val read_bit : reader -> bool
(** Raises [Invalid_argument] past the end. *)

val reader_pos : reader -> int
(** Current position, in bits from the start of the buffer. *)

val seek : reader -> int -> unit
(** Reposition the reader to an absolute bit offset in [0, length].
    Together with {!reader_pos} this makes a reader seekable, so one
    reader over a block of records can decode them in any order (the
    corpus query engine's random-access path). Raises
    [Invalid_argument] outside the range. *)

val read_bits : reader -> width:int -> int
(** [read_bits r ~width] reads the next [width] bits as one field, most
    significant first: the inverse of {!add_bits}. Requires
    [0 <= width <= 62]. Raises [Invalid_argument] if fewer than
    [width] bits remain; the reader position is unchanged on
    failure. *)

val remaining : reader -> int

val pp : Format.formatter -> t -> unit
(** Bits as a ['0'/'1'] string (for tests and debugging). *)
