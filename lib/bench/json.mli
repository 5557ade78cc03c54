(** Minimal JSON tree, printer and parser.

    The bench library must read and write its own reports and history
    lines without an external JSON dependency (the container only
    carries the toolchain). The dialect is the subset the [umrs/bench/v1]
    schema needs: null, booleans, IEEE doubles, strings, arrays and
    objects — no surrogate-pair decoding ([\uXXXX] escapes below 0x80
    only), object member order preserved. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val to_string : ?indent:int -> t -> string
(** Render with [indent] spaces per level (default 2; 0 means one
    line). Integral [Num]s print without a decimal point; other numbers
    print with up to nanosecond-scale precision, trailing zeros
    trimmed. A non-finite [Num] (NaN, infinity) prints as [null]. *)

val parse : string -> (t, string) result
(** Parse one JSON value; trailing garbage, truncation and malformed
    escapes come back as [Error] with a byte offset, never an
    exception. *)

(** {1 Accessors} — each returns [None] on a shape mismatch. *)

val member : string -> t -> t option
val to_float : t -> float option

val to_num : t -> float option
(** Like {!to_float}, but reads [Null] as [nan]: the inverse of
    {!to_string} for a number that may have been non-finite. *)

val to_int : t -> int option
val to_str : t -> string option
val to_list : t -> t list option
val obj : t -> (string * t) list option
