type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* ---------- printing ---------- *)

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Readable numbers for committed report files: integers bare, reals
   with up to 9 fractional digits (nanosecond resolution for seconds
   values), trailing zeros trimmed. Falls back to %.17g when 9 digits
   would collapse a nonzero value to zero. JSON has no NaN or infinity,
   so a non-finite number prints as null. *)
let num_to_string v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else begin
    let s = Printf.sprintf "%.9f" v in
    let s =
      let n = ref (String.length s) in
      while !n > 1 && s.[!n - 1] = '0' do decr n done;
      if !n > 1 && s.[!n - 1] = '.' then decr n;
      String.sub s 0 !n
    in
    if float_of_string s = 0.0 && v <> 0.0 then Printf.sprintf "%.17g" v else s
  end

let to_string ?(indent = 2) t =
  let b = Buffer.create 1024 in
  let pad depth =
    if indent > 0 then begin
      Buffer.add_char b '\n';
      Buffer.add_string b (String.make (depth * indent) ' ')
    end
  in
  let rec go depth = function
    | Null -> Buffer.add_string b "null"
    | Bool v -> Buffer.add_string b (if v then "true" else "false")
    | Num v -> Buffer.add_string b (num_to_string v)
    | Str s ->
      Buffer.add_char b '"';
      Buffer.add_string b (escape s);
      Buffer.add_char b '"'
    | Arr [] -> Buffer.add_string b "[]"
    | Arr xs ->
      Buffer.add_char b '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char b ',';
          pad (depth + 1);
          go (depth + 1) x)
        xs;
      pad depth;
      Buffer.add_char b ']'
    | Obj [] -> Buffer.add_string b "{}"
    | Obj kvs ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          pad (depth + 1);
          Buffer.add_char b '"';
          Buffer.add_string b (escape k);
          Buffer.add_string b "\": ";
          go (depth + 1) v)
        kvs;
      pad depth;
      Buffer.add_char b '}'
  in
  go 0 t;
  Buffer.contents b

(* ---------- parsing ---------- *)

exception Fail of int * string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do advance () done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> advance ()
      | '\\' ->
        advance ();
        (if !pos >= n then fail "unterminated escape";
         (match s.[!pos] with
         | '"' -> Buffer.add_char b '"'
         | '\\' -> Buffer.add_char b '\\'
         | '/' -> Buffer.add_char b '/'
         | 'n' -> Buffer.add_char b '\n'
         | 'r' -> Buffer.add_char b '\r'
         | 't' -> Buffer.add_char b '\t'
         | 'b' -> Buffer.add_char b '\b'
         | 'f' -> Buffer.add_char b '\012'
         | 'u' ->
           if !pos + 4 >= n then fail "truncated \\u escape";
           let hex = String.sub s (!pos + 1) 4 in
           let code =
             match int_of_string_opt ("0x" ^ hex) with
             | Some c -> c
             | None -> fail "bad \\u escape"
           in
           if code > 0x7F then fail "\\u escape above 0x7f unsupported";
           Buffer.add_char b (Char.chr code);
           pos := !pos + 4
         | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
         advance ());
        go ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char b c;
        advance ();
        go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do advance () done;
    if !pos = start then fail "expected a value";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some v -> v
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            List.rev ((k, v) :: acc)
          | _ -> fail "expected ',' or '}'"
        in
        Obj (members [])
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let rec elements acc =
          let v = parse_value () in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List.rev (v :: acc)
          | _ -> fail "expected ',' or ']'"
        in
        Arr (elements [])
      end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) ->
    Error (Printf.sprintf "json: %s at byte %d" msg at)

(* ---------- accessors ---------- *)

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let to_float = function Num v -> Some v | _ -> None
let to_num = function Null -> Some Float.nan | j -> to_float j

let to_int = function
  | Num v when Float.is_integer v -> Some (int_of_float v)
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_list = function Arr xs -> Some xs | _ -> None
let obj = function Obj kvs -> Some kvs | _ -> None
