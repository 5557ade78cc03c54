open Umrs_bitcode
open Helpers

let small_nat = QCheck.make ~print:string_of_int QCheck.Gen.(map abs int)
let pos_nat =
  QCheck.make ~print:string_of_int QCheck.Gen.(map (fun x -> 1 + (abs x mod 1000000)) int)

let test_bitbuf_basics () =
  let b = Bitbuf.create () in
  check_int "empty" 0 (Bitbuf.length b);
  Bitbuf.add_bit b true;
  Bitbuf.add_bit b false;
  Bitbuf.add_bit b true;
  check_int "len 3" 3 (Bitbuf.length b);
  check_true "array" (Bitbuf.to_bool_array b = [| true; false; true |]);
  let r = Bitbuf.reader b in
  check_true "read 1" (Bitbuf.read_bit r);
  check_true "read 0" (not (Bitbuf.read_bit r));
  check_int "remaining" 1 (Bitbuf.remaining r)

let test_bitbuf_growth () =
  let b = Bitbuf.create () in
  for i = 0 to 999 do
    Bitbuf.add_bit b (i mod 3 = 0)
  done;
  check_int "len 1000" 1000 (Bitbuf.length b);
  let a = Bitbuf.to_bool_array b in
  check_true "content preserved"
    (Array.for_all Fun.id (Array.mapi (fun i x -> x = (i mod 3 = 0)) a))

let test_add_bits_msb_first () =
  let b = Bitbuf.create () in
  Bitbuf.add_bits b 5 ~width:3;
  check_true "101" (Bitbuf.to_bool_array b = [| true; false; true |]);
  let r = Bitbuf.reader b in
  check_int "roundtrip" 5 (Bitbuf.read_bits r ~width:3)

let test_append_concat () =
  let b1 = Bitbuf.of_bool_array [| true; true |] in
  let b2 = Bitbuf.of_bool_array [| false |] in
  let c = Bitbuf.concat [ b1; b2; b1 ] in
  check_true "concat" (Bitbuf.to_bool_array c = [| true; true; false; true; true |])

let test_reader_past_end () =
  let b = Bitbuf.create () in
  let r = Bitbuf.reader b in
  check_true "raises"
    (try ignore (Bitbuf.read_bit r); false with Invalid_argument _ -> true)

let test_reader_overread_multibit () =
  (* read_bits must not read past the end even when a prefix of the
     requested width is available. *)
  let b = Bitbuf.create () in
  Bitbuf.add_bits b 5 ~width:3;
  let r = Bitbuf.reader b in
  ignore (Bitbuf.read_bits r ~width:2);
  check_int "one bit left" 1 (Bitbuf.remaining r);
  check_true "read_bits past end raises"
    (try ignore (Bitbuf.read_bits r ~width:2); false
     with Invalid_argument _ -> true);
  (* Reader state survives the failed read: the remaining bit is
     still readable. *)
  check_true "remaining bit intact" (Bitbuf.read_bit r);
  check_int "now empty" 0 (Bitbuf.remaining r)

let test_bytes_roundtrip () =
  let b = Bitbuf.create () in
  Bitbuf.add_bits b 0b1011 ~width:4;
  Bitbuf.add_bits b 0b110100101 ~width:9;
  let packed = Bitbuf.to_bytes b in
  check_int "packed size" 2 (Bytes.length packed);
  let b' = Bitbuf.of_bytes packed ~len:(Bitbuf.length b) in
  check_true "bytes roundtrip"
    (Bitbuf.to_bool_array b = Bitbuf.to_bool_array b');
  check_true "of_bytes rejects oversized len"
    (try ignore (Bitbuf.of_bytes packed ~len:17); false
     with Invalid_argument _ -> true);
  (* Empty buffer edge case. *)
  let e = Bitbuf.create () in
  check_int "empty packs to 0 bytes" 0 (Bytes.length (Bitbuf.to_bytes e));
  check_int "empty unpacks" 0
    (Bitbuf.length (Bitbuf.of_bytes Bytes.empty ~len:0))

let test_codes_explicit () =
  check_int "bits_needed 0" 0 (Codes.bits_needed 0);
  check_int "bits_needed 1" 1 (Codes.bits_needed 1);
  check_int "bits_needed 255" 8 (Codes.bits_needed 255);
  check_int "ceil_log2 1" 0 (Codes.ceil_log2 1);
  check_int "ceil_log2 9" 4 (Codes.ceil_log2 9);
  check_int "gamma length 1" 1 (Codes.gamma_length 1);
  check_int "gamma length 4" 5 (Codes.gamma_length 4);
  check_int "unary length" 6 (Codes.unary_length 5)

let roundtrip write read lengthf x =
  let b = Bitbuf.create () in
  write b x;
  let r = Bitbuf.reader b in
  let y = read r in
  y = x && Bitbuf.length b = lengthf x && Bitbuf.remaining r = 0

let test_rank_binomial () =
  check_int "C(5,2)" 10 (Rank.binomial 5 2);
  check_int "C(10,0)" 1 (Rank.binomial 10 0);
  check_int "C(10,10)" 1 (Rank.binomial 10 10);
  check_int "C(52,5)" 2598960 (Rank.binomial 52 5);
  Alcotest.(check (float 1e-6))
    "log2 C(5,2)"
    (Float.log (10.0) /. Float.log 2.0)
    (Rank.log2_binomial 5 2);
  Alcotest.(check (float 1e-6))
    "log2 10!"
    (Float.log 3628800.0 /. Float.log 2.0)
    (Rank.log2_factorial 10)

let test_combination_rank_order () =
  (* first and last combinations *)
  check_int "rank of prefix" 0 (Rank.rank_combination ~n:6 [| 0; 1; 2 |]);
  check_int "rank of suffix"
    (Rank.binomial 6 3 - 1)
    (Rank.rank_combination ~n:6 [| 3; 4; 5 |]);
  check_true "unrank 0" (Rank.unrank_combination ~n:6 ~k:3 0 = [| 0; 1; 2 |])

let test_combination_exhaustive () =
  (* all C(7,3) ranks round-trip and are distinct *)
  let n = 7 and k = 3 in
  let total = Rank.binomial n k in
  for r = 0 to total - 1 do
    let c = Rank.unrank_combination ~n ~k r in
    check_int "roundtrip" r (Rank.rank_combination ~n c)
  done

let test_permutation_codec () =
  let st = rng () in
  for n = 1 to 8 do
    let p = Umrs_graph.Perm.random st n in
    let b = Bitbuf.create () in
    Rank.write_permutation b p;
    check_int "length" (Rank.permutation_length n) (Bitbuf.length b);
    let r = Bitbuf.reader b in
    check_true "roundtrip" (Rank.read_permutation r ~n = p)
  done

let combination_arb =
  let gen =
    QCheck.Gen.map
      (fun (seed, n, k) ->
        let n = 1 + (abs n mod 16) in
        let k = abs k mod (n + 1) in
        let st = Random.State.make [| seed |] in
        let p = Umrs_graph.Perm.random st n in
        let c = Array.sub p 0 k in
        Array.sort compare c;
        (n, c))
      QCheck.Gen.(triple int small_nat small_nat)
  in
  QCheck.make
    ~print:(fun (n, c) ->
      Printf.sprintf "n=%d [%s]" n
        (String.concat ";" (List.map string_of_int (Array.to_list c))))
    gen

(* ---------- Bitbuf against a bit-at-a-time oracle ---------- *)

(* The oracle writes and reads one bit per step over the documented
   layout: stream bit i is bit [i mod 8] of byte [i / 8], fields go in
   MSB first. The round-trip properties above would still pass if
   writer and reader changed the layout together; comparing byte
   images with these loops would not. *)
module Oracle = struct
  type t = { mutable bits : Bytes.t; mutable len : int }

  let create () = { bits = Bytes.make 16 '\000'; len = 0 }

  let ensure b extra =
    let need = (b.len + extra + 7) / 8 in
    if need > Bytes.length b.bits then begin
      let cap = max need (2 * Bytes.length b.bits) in
      let fresh = Bytes.make cap '\000' in
      Bytes.blit b.bits 0 fresh 0 (Bytes.length b.bits);
      b.bits <- fresh
    end

  let add_bit b bit =
    ensure b 1;
    if bit then begin
      let byte = b.len / 8 and off = b.len mod 8 in
      Bytes.set b.bits byte
        (Char.chr (Char.code (Bytes.get b.bits byte) lor (1 lsl off)))
    end;
    b.len <- b.len + 1

  let add_bits b x ~width =
    for i = width - 1 downto 0 do
      add_bit b ((x lsr i) land 1 = 1)
    done

  let get b i = Char.code (Bytes.get b.bits (i / 8)) land (1 lsl (i mod 8)) <> 0

  let read_bits b pos ~width =
    let x = ref 0 in
    for i = pos to pos + width - 1 do
      x := (!x lsl 1) lor if get b i then 1 else 0
    done;
    !x

  (* The first [len] bits of a packed image; the rest is dropped. *)
  let of_bytes bytes ~len =
    let b = create () in
    for i = 0 to len - 1 do
      add_bit b (Char.code (Bytes.get bytes (i / 8)) land (1 lsl (i mod 8)) <> 0)
    done;
    b

  let to_bytes b = Bytes.sub b.bits 0 ((b.len + 7) / 8)
  let to_string b = String.init b.len (fun i -> if get b i then '1' else '0')
end

type write = W_bit of bool | W_bits of int * int | W_unary of int
type read = R_bit | R_bits of int | R_seek of int | R_unary

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

(* [w] random bits: three 30-bit draws cover the 62-bit widths. *)
let random_bits st w =
  let r =
    (Random.State.bits st lsl 60) lxor (Random.State.bits st lsl 30)
    lxor Random.State.bits st
  in
  r land ((1 lsl w) - 1)

let gen_write st =
  match Random.State.int st 8 with
  | 0 -> W_bit (Random.State.bool st)
  | 1 -> W_unary (Random.State.int st 200)
  | _ ->
    let w =
      if Random.State.bool st then Random.State.int st 63
      else Random.State.int st 12
    in
    (* all ones at width 62 is [max_int] *)
    let x =
      match Random.State.int st 4 with
      | 0 -> 0
      | 1 -> (1 lsl w) - 1
      | _ -> random_bits st w
    in
    W_bits (x, w)

let write_length = function
  | W_bit _ -> 1
  | W_bits (_, w) -> w
  | W_unary n -> n + 1

let gen_read st ~len =
  match Random.State.int st 6 with
  | 0 -> R_bit
  | 1 -> R_seek (Random.State.int st (len + 5) - 2)
  | 2 -> R_unary
  | _ -> R_bits (Random.State.int st 63)

let print_case (start, writes, reads) =
  let start =
    match start with
    | None -> "create"
    | Some (bytes, len) ->
      Printf.sprintf "of_bytes %S ~len:%d" (Bytes.to_string bytes) len
  in
  let w = function
    | W_bit b -> Printf.sprintf "bit %b" b
    | W_bits (x, w) -> Printf.sprintf "bits %d/%d" x w
    | W_unary n -> Printf.sprintf "unary %d" n
  in
  let r = function
    | R_bit -> "read_bit"
    | R_bits w -> Printf.sprintf "read_bits %d" w
    | R_seek p -> Printf.sprintf "seek %d" p
    | R_unary -> "read_unary"
  in
  Printf.sprintf "%s; [%s]; [%s]" start
    (String.concat "; " (List.map w writes))
    (String.concat "; " (List.map r reads))

let drop_each l =
  Seq.map
    (fun i -> List.filteri (fun j _ -> j <> i) l)
    (Seq.take (List.length l) (Seq.ints 0))

(* A start (fresh, or [of_bytes] over random bytes whose padding past
   [len] is garbage), then writes, then reads that run past the end. *)
let bitbuf_case =
  Gen.make ~print:print_case
    ~shrink:(fun (s, w, r) ->
      Seq.append
        (if s = None then Seq.empty else Seq.return (None, w, r))
        (Seq.append
           (Seq.map (fun w -> (s, w, r)) (drop_each w))
           (Seq.map (fun r -> (s, w, r)) (drop_each r))))
    (fun st ->
      let start =
        if Random.State.int st 3 > 0 then None
        else begin
          let n = Random.State.int st 12 in
          let bytes =
            Bytes.init n (fun _ -> Char.chr (Random.State.int st 256))
          in
          Some (bytes, Random.State.int st ((8 * n) + 1))
        end
      in
      let writes = List.init (Random.State.int st 40) (fun _ -> gen_write st) in
      let len =
        List.fold_left (fun acc w -> acc + write_length w)
          (match start with None -> 0 | Some (_, l) -> l)
          writes
      in
      let reads = List.init (Random.State.int st 60) (fun _ -> gen_read st ~len) in
      (start, writes, reads))

let matches_oracle (start, writes, reads) =
  let b, o =
    match start with
    | None -> (Bitbuf.create (), Oracle.create ())
    | Some (bytes, len) ->
      (Bitbuf.of_bytes bytes ~len, Oracle.of_bytes bytes ~len)
  in
  List.iter
    (function
      | W_bit x -> Bitbuf.add_bit b x; Oracle.add_bit o x
      | W_bits (x, width) ->
        Bitbuf.add_bits b x ~width;
        Oracle.add_bits o x ~width
      | W_unary n ->
        Codes.write_unary b n;
        for _ = 1 to n do Oracle.add_bit o true done;
        Oracle.add_bit o false)
    writes;
  let r = Bitbuf.reader b in
  let step op =
    let pos = Bitbuf.reader_pos r in
    let left = o.Oracle.len - pos in
    let moved_to p = Bitbuf.reader_pos r = p in
    match op with
    | R_bit when left > 0 ->
      Bitbuf.read_bit r = Oracle.get o pos && moved_to (pos + 1)
    | R_bit -> raises (fun () -> Bitbuf.read_bit r) && moved_to pos
    | R_bits width when width <= left ->
      Bitbuf.read_bits r ~width = Oracle.read_bits o pos ~width
      && moved_to (pos + width)
    | R_bits width ->
      raises (fun () -> Bitbuf.read_bits r ~width) && moved_to pos
    | R_seek p when p >= 0 && p <= o.Oracle.len -> Bitbuf.seek r p; moved_to p
    | R_seek p -> raises (fun () -> Bitbuf.seek r p) && moved_to pos
    | R_unary ->
      let rec stop i =
        if i < o.Oracle.len && Oracle.get o i then stop (i + 1) else i
      in
      let z = stop pos in
      if z < o.Oracle.len then Codes.read_unary r = z - pos && moved_to (z + 1)
      else raises (fun () -> Codes.read_unary r)
  in
  Bitbuf.length b = o.Oracle.len
  && Bytes.equal (Bitbuf.to_bytes b) (Oracle.to_bytes o)
  && Format.asprintf "%a" Bitbuf.pp b = Oracle.to_string o
  && List.for_all step reads

(* Every field width at every offset within a byte, for zero, all ones
   and a mixed pattern, followed by one more bit. *)
let test_every_offset_and_width () =
  for off = 0 to 7 do
    for width = 0 to 62 do
      let mask = (1 lsl width) - 1 in
      List.iter
        (fun x ->
          let b = Bitbuf.create () and o = Oracle.create () in
          for i = 0 to off - 1 do
            Bitbuf.add_bit b (i land 1 = 0);
            Oracle.add_bit o (i land 1 = 0)
          done;
          Bitbuf.add_bits b x ~width;
          Oracle.add_bits o x ~width;
          Bitbuf.add_bit b true;
          Oracle.add_bit o true;
          let what = Printf.sprintf "offset %d width %d value %d" off width x in
          check_true (what ^ ": bytes")
            (Bytes.equal (Bitbuf.to_bytes b) (Oracle.to_bytes o));
          let r = Bitbuf.reader b in
          Bitbuf.seek r off;
          check_int (what ^ ": read back") x (Bitbuf.read_bits r ~width);
          check_true (what ^ ": next bit") (Bitbuf.read_bit r))
        [ 0; mask; 0x2D5B_3C97_A6E1_0F48 land mask ]
    done
  done

(* The argument checks: a refused write leaves the buffer as it was. *)
let test_bitbuf_checks () =
  let b = Bitbuf.create () in
  Bitbuf.add_bits b 5 ~width:3;
  check_true "width -1" (raises (fun () -> Bitbuf.add_bits b 0 ~width:(-1)));
  check_true "width 63" (raises (fun () -> Bitbuf.add_bits b 0 ~width:63));
  check_true "value too wide" (raises (fun () -> Bitbuf.add_bits b 8 ~width:3));
  check_true "negative value"
    (raises (fun () -> Bitbuf.add_bits b (-1) ~width:62));
  check_int "refused writes add nothing" 3 (Bitbuf.length b);
  check_true "image unchanged"
    (Bytes.equal (Bitbuf.to_bytes b) (Bytes.make 1 '\005'));
  let r = Bitbuf.reader b in
  check_true "read width 63" (raises (fun () -> Bitbuf.read_bits r ~width:63));
  check_true "read width -1" (raises (fun () -> Bitbuf.read_bits r ~width:(-1)));
  check_true "seek -1" (raises (fun () -> Bitbuf.seek r (-1)));
  check_true "seek past end" (raises (fun () -> Bitbuf.seek r 4));
  check_int "reader unmoved" 0 (Bitbuf.reader_pos r);
  let ones = Bitbuf.of_bool_array [| true; true |] in
  check_true "unary past end"
    (raises (fun () -> Codes.read_unary (Bitbuf.reader ones)))

(* ---------- the one-word field writer ---------- *)

(* A field of [width] bits after [start] bits of a fixed pattern, then
   one more bit, written by Bitbuf on [b] and by the oracle on [o]. *)
let field_after b o ~start x ~width =
  let bit i = i mod 3 = 0 in
  for i = 0 to start - 1 do
    Oracle.add_bit o (bit i)
  done;
  let pos = ref 0 in
  while !pos < start do
    let w = min 62 (start - !pos) in
    Bitbuf.add_bits b (Oracle.read_bits o (o.Oracle.len - start + !pos) ~width:w) ~width:w;
    pos := !pos + w
  done;
  Bitbuf.add_bits b x ~width;
  Oracle.add_bits o x ~width;
  Bitbuf.add_bit b true;
  Oracle.add_bit o true

(* Every width at every start from 0 to 520 bits, so a field starts at
   every offset mod 8 and ends at every capacity a fresh buffer grows
   through in its first few doublings, whatever the growth rule. *)
let test_word_writer_fresh () =
  for width = 0 to 62 do
    let mask = (1 lsl width) - 1 in
    List.iter
      (fun x ->
        for start = 0 to 520 do
          let b = Bitbuf.create () and o = Oracle.create () in
          field_after b o ~start x ~width;
          if not (Bytes.equal (Bitbuf.to_bytes b) (Oracle.to_bytes o)) then
            Alcotest.failf "width %d value %d after %d bits: bytes differ" width x start
        done)
      [ mask; 0x2D5B_3C97_A6E1_0F48 land mask ]
  done

(* The same from buffers made by [of_bytes]: no slack past the image,
   garbage in the padding of the last byte and in the bytes past it. *)
let test_word_writer_of_bytes () =
  let st = rng () in
  for len = 0 to 80 do
    let bytes = Bytes.init (((len + 7) / 8) + Random.State.int st 3) (fun _ -> Char.chr (Random.State.int st 256)) in
    for width = 0 to 62 do
      let x = random_bits st width in
      let b = Bitbuf.of_bytes bytes ~len and o = Oracle.of_bytes bytes ~len in
      field_after b o ~start:(Random.State.int st 3) x ~width;
      if not (Bytes.equal (Bitbuf.to_bytes b) (Oracle.to_bytes o)) then
        Alcotest.failf "of_bytes len %d, width %d value %d: bytes differ" len width x
    done
  done

(* One-field gamma and delta against their definitions written a bit at
   a time: gamma is [w] ones, a zero and the [w] bits of [x] below its
   leading one; delta is the gamma of [w + 1] and those [w] bits. At
   every power-of-two boundary up to 2^40, after every offset mod 8. *)
let test_one_field_codes () =
  let gamma o x =
    let w = Codes.bits_needed x - 1 in
    for _ = 1 to w do Oracle.add_bit o true done;
    Oracle.add_bit o false;
    Oracle.add_bits o (x - (1 lsl w)) ~width:w
  in
  let delta o x =
    let w = Codes.bits_needed x - 1 in
    gamma o (w + 1);
    Oracle.add_bits o (x - (1 lsl w)) ~width:w
  in
  for k = 0 to 40 do
    List.iter
      (fun x ->
        List.iter
          (fun (code, write, pieces, read) ->
            for off = 0 to 7 do
              let b = Bitbuf.create () and o = Oracle.create () in
              for _ = 1 to off do Bitbuf.add_bit b true; Oracle.add_bit o true done;
              write b x;
              pieces o x;
              let what = Printf.sprintf "%s %d at offset %d" code x off in
              check_true (what ^ ": bytes") (Bytes.equal (Bitbuf.to_bytes b) (Oracle.to_bytes o));
              check_int (what ^ ": length") o.Oracle.len (Bitbuf.length b);
              let r = Bitbuf.reader b in
              Bitbuf.seek r off;
              check_int (what ^ ": read back") x (read r)
            done)
          [ ("gamma", Codes.write_gamma, gamma, Codes.read_gamma);
            ("delta", Codes.write_delta, delta, Codes.read_delta) ])
      (List.filter (fun x -> x >= 1) [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ])
  done

let suite =
  [
    case "bitbuf basics" test_bitbuf_basics;
    case "bitbuf growth" test_bitbuf_growth;
    case "add_bits is MSB first" test_add_bits_msb_first;
    case "append/concat" test_append_concat;
    case "reader past end" test_reader_past_end;
    case "reader over-read keeps state" test_reader_overread_multibit;
    case "bytes roundtrip" test_bytes_roundtrip;
    case "codes explicit values" test_codes_explicit;
    case "binomial" test_rank_binomial;
    case "combination rank order" test_combination_rank_order;
    case "combination exhaustive C(7,3)" test_combination_exhaustive;
    case "permutation codec" test_permutation_codec;
    case "every offset x every width = oracle" test_every_offset_and_width;
    case "argument checks refuse without effect" test_bitbuf_checks;
    Gen.prop ~count:300 "bitbuf = bit-at-a-time oracle" bitbuf_case
      matches_oracle;
    prop "unary roundtrip" small_nat (fun x ->
        let x = x mod 2000 in
        roundtrip Codes.write_unary Codes.read_unary Codes.unary_length x);
    prop "gamma roundtrip" pos_nat (fun x ->
        roundtrip Codes.write_gamma Codes.read_gamma Codes.gamma_length x);
    prop "delta roundtrip" pos_nat (fun x ->
        roundtrip Codes.write_delta Codes.read_delta Codes.delta_length x);
    prop "fibonacci roundtrip" pos_nat (fun x ->
        roundtrip Codes.write_fibonacci Codes.read_fibonacci
          Codes.fibonacci_length x);
    prop "fibonacci code ends in 11" pos_nat (fun x ->
        let b = Bitbuf.create () in
        Codes.write_fibonacci b x;
        let a = Bitbuf.to_bool_array b in
        let n = Array.length a in
        n >= 2 && a.(n - 1) && a.(n - 2));
    prop "rice roundtrip" pos_nat (fun x ->
        let k = x mod 8 in
        roundtrip
          (fun b x -> Codes.write_rice b x ~k)
          (fun r -> Codes.read_rice r ~k)
          (fun x -> Codes.rice_length x ~k)
          (x mod 4096));
    prop "bounded roundtrip" pos_nat (fun bound ->
        let bound = 1 + (bound mod 100000) in
        let x = bound - 1 in
        let b = Bitbuf.create () in
        Codes.write_bounded b x ~bound;
        Codes.read_bounded (Bitbuf.reader b) ~bound = x);
    prop "delta never longer than gamma + 1 for x >= 2" pos_nat (fun x ->
        let x = x + 1 in
        Codes.delta_length x <= Codes.gamma_length x + 1);
    prop "combination roundtrip" combination_arb (fun (n, c) ->
        Rank.unrank_combination ~n ~k:(Array.length c)
          (Rank.rank_combination ~n c)
        = c);
    prop "combination code length" combination_arb (fun (n, c) ->
        let b = Bitbuf.create () in
        Rank.write_combination b ~n c;
        Bitbuf.length b = Rank.combination_length ~n ~k:(Array.length c)
        && Rank.read_combination (Bitbuf.reader b) ~n ~k:(Array.length c) = c);
    case "word writer = oracle: every width and start" test_word_writer_fresh;
    case "word writer = oracle: of_bytes buffers" test_word_writer_of_bytes;
    case "one-field gamma and delta = unary then fixed" test_one_field_codes;
  ]
