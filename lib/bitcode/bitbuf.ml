(* Layout: stream bit i is bit [i land 7] of byte [i lsr 3] (LSB
   first), and a field goes in MSB first, so its leading bit takes the
   lowest stream position.

   Invariant: every bit at a stream position >= [len] is zero, in the
   last partly filled byte and in the spare capacity alike. [create]
   and [grow] hand out zeroed bytes, [of_bytes] re-zeroes the padding
   of its last byte, and the writers only OR ones in below the new
   [len]. So a writer can OR a field in without clearing it first, and
   [to_bytes] needs no masking.

   A field of up to 55 bits goes in as one word: its bits reversed into
   stream order through [rev8], shifted to the stream offset within
   byte [len/8], and ORed into the little-endian 64-bit word that
   starts at that byte. The offset is at most 7, so the shifted field
   fits a non-negative int and the word. [ensure] keeps 8 bytes from
   the byte that will hold the new end of the stream, so the word is
   always in the buffer; a wider field goes as two such writes. Reads
   move a byte-piece at a time: a field is cut at byte boundaries,
   each piece one shift out of a single byte. Dune's dev profile
   compiles with -opaque, so the byte and word accesses are declared
   here on the bounds-checked primitives rather than called through
   [Bytes], and the hot paths compare ints without [Stdlib.min]. *)

external get_byte : Bytes.t -> int -> int = "%bytes_safe_get"
external set_byte : Bytes.t -> int -> int -> unit = "%bytes_safe_set"
external get_word : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set_word : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external bswap : int64 -> int64 = "%bswap_int64"
external big_endian : unit -> bool = "%big_endian"

(* [rev8.(v)] is the 8-bit value [v] with its bit order reversed. *)
let rev8 =
  Array.init 256 (fun v ->
      let r = ref 0 in
      for i = 0 to 7 do
        if v land (1 lsl i) <> 0 then r := !r lor (1 lsl (7 - i))
      done;
      !r)

type t = { mutable bits : Bytes.t; mutable len : int }

let create () = { bits = Bytes.make 16 '\000'; len = 0 }

let length b = b.len

(* Room for [extra] more bits plus the 8 bytes a word write among them
   may touch. *)
let grow b extra =
  let need = ((b.len + extra) lsr 3) + 8 in
  let have = Bytes.length b.bits in
  let fresh = Bytes.make (if need > 2 * have then need else 2 * have) '\000' in
  Bytes.blit b.bits 0 fresh 0 have;
  b.bits <- fresh

let ensure b extra =
  if ((b.len + extra) lsr 3) + 8 > Bytes.length b.bits then grow b extra

let add_bit b bit =
  ensure b 1;
  if bit then begin
    let i = b.len lsr 3 in
    set_byte b.bits i (get_byte b.bits i lor (1 lsl (b.len land 7)))
  end;
  b.len <- b.len + 1

(* The [width] low bits of [x] in reverse order, [width <= 56]: a byte
   at a time through [rev8], then shifted down past the bits the last
   byte added beyond [width]. *)
let reverse x width =
  let r = ref 0 and y = ref x and k = ref 0 in
  while !k < width do
    r := (!r lsl 8) lor rev8.(!y land 0xff);
    y := !y lsr 8;
    k := !k + 8
  done;
  !r lsr (!k - width)

(* One field of at most 55 bits at [len], ORed into the word at byte
   [len/8]. OR acts bytewise, so on a big-endian host the
   little-endian field is swapped rather than the word. *)
let put b x width =
  let pos = b.len in
  let field = Int64.of_int (reverse x width lsl (pos land 7)) in
  let i = pos lsr 3 in
  set_word b.bits i
    (Int64.logor (get_word b.bits i) (if big_endian () then bswap field else field));
  b.len <- pos + width

let add_bits b x ~width =
  if width < 0 || width > 62 then invalid_arg "Bitbuf.add_bits: width";
  if x < 0 || (width < 62 && x lsr width <> 0) then
    invalid_arg "Bitbuf.add_bits: value does not fit";
  ensure b width;
  if width <= 55 then put b x width
  else begin
    put b (x lsr 31) (width - 31);
    put b (x land 0x7FFF_FFFF) 31
  end

let get b i =
  if i < 0 || i >= b.len then invalid_arg "Bitbuf: index out of range";
  get_byte b.bits (i lsr 3) land (1 lsl (i land 7)) <> 0

let append dst src =
  for i = 0 to src.len - 1 do
    add_bit dst (get src i)
  done

let to_bool_array b = Array.init b.len (get b)

let to_bytes b = Bytes.sub b.bits 0 ((b.len + 7) / 8)

let of_bytes bytes ~len =
  if len < 0 || len > 8 * Bytes.length bytes then
    invalid_arg "Bitbuf.of_bytes: len does not fit the bytes";
  let b = { bits = Bytes.sub bytes 0 ((len + 7) / 8); len } in
  (* Re-zero the padding bits of the last byte so equal bit sequences
     have equal byte images regardless of the caller's padding, and so
     the zero-past-[len] invariant holds for later writes. *)
  if len land 7 <> 0 then begin
    let last = len lsr 3 in
    set_byte b.bits last (get_byte b.bits last land ((1 lsl (len land 7)) - 1))
  end;
  b

let of_bool_array a =
  let b = create () in
  Array.iter (add_bit b) a;
  b

let concat l =
  let b = create () in
  List.iter (append b) l;
  b

type reader = { buf : t; mutable pos : int }

let reader buf = { buf; pos = 0 }

let read_bit r =
  let p = r.pos in
  if p >= r.buf.len then invalid_arg "Bitbuf.read_bit: past end";
  r.pos <- p + 1;
  get_byte r.buf.bits (p lsr 3) land (1 lsl (p land 7)) <> 0

let reader_pos r = r.pos

let seek r pos =
  if pos < 0 || pos > r.buf.len then invalid_arg "Bitbuf.seek: out of range";
  r.pos <- pos

let read_bits r ~width =
  if width < 0 || width > 62 then invalid_arg "Bitbuf.read_bits: width";
  (* Check up front so a failed read never half-consumes the reader. *)
  if r.buf.len - r.pos < width then invalid_arg "Bitbuf.read_bits: past end";
  let bits = r.buf.bits in
  let pos = ref r.pos and rest = ref width and x = ref 0 in
  while !rest > 0 do
    let off = !pos land 7 in
    let k = if !rest < 8 - off then !rest else 8 - off in
    (* [k] stream bits from [off], reversed back into field order *)
    let piece = (get_byte bits (!pos lsr 3) lsr off) land ((1 lsl k) - 1) in
    x := (!x lsl k) lor (rev8.(piece) lsr (8 - k));
    pos := !pos + k;
    rest := !rest - k
  done;
  r.pos <- !pos;
  !x

let remaining r = r.buf.len - r.pos

let pp fmt b =
  for i = 0 to b.len - 1 do
    Format.pp_print_char fmt (if get b i then '1' else '0')
  done
