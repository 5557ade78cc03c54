open Umrs_graph
open Umrs_routing
open Helpers

(* ---------- graph serialization ---------- *)

let test_io_roundtrip_exact () =
  let g = Generators.petersen () in
  let g' = Graph_io.of_string (Graph_io.to_string g) in
  check_true "ports preserved exactly" (Graph.equal g g')

let test_io_empty_rows () =
  let g = Graph.empty 3 in
  let g' = Graph_io.of_string (Graph_io.to_string g) in
  check_true "isolated vertices survive" (Graph.equal g g')

let test_io_comments () =
  let s = "# a triangle\n3\n1 2\n0 2\n# ports of 2\n0 1\n" in
  let g = Graph_io.of_string s in
  check_int "order" 3 (Graph.order g);
  check_int "size" 3 (Graph.size g)

let test_io_rejects_garbage () =
  let rejects s =
    try ignore (Graph_io.of_string s); false
    with Invalid_argument _ | Failure _ -> true
  in
  check_true "empty" (rejects "");
  check_true "bad header" (rejects "x\n1 2\n");
  check_true "missing rows" (rejects "4\n1\n0\n");
  check_true "asymmetric" (rejects "2\n1\n\n")

let test_io_file_roundtrip () =
  let g = Generators.torus 4 4 in
  let path = Filename.temp_file "umrs" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Graph_io.save g ~path;
      check_true "file roundtrip" (Graph.equal g (Graph_io.load ~path)))

(* Failure paths on actual files, not just strings: these are the
   errors routing_lab's file: prefix must surface cleanly. *)

let with_graph_file content f =
  let path = Filename.temp_file "umrs" ".graph" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc content;
      close_out oc;
      f path)

let test_io_load_missing_file () =
  let path = Filename.temp_file "umrs" ".graph" in
  Sys.remove path;
  check_true "missing file raises Sys_error"
    (try ignore (Graph_io.load ~path); false with Sys_error _ -> true)

let test_io_load_truncated_file () =
  (* Valid header claiming 4 vertices, rows cut off mid-way. *)
  with_graph_file "4\n1 2\n0\n" (fun path ->
      check_true "truncated file rejected"
        (try ignore (Graph_io.load ~path); false
         with Invalid_argument _ | Failure _ -> true))

let test_io_load_bad_header () =
  with_graph_file "petersen\n1 2\n" (fun path ->
      check_true "non-numeric header rejected"
        (try ignore (Graph_io.load ~path); false
         with Invalid_argument _ | Failure _ -> true));
  with_graph_file "" (fun path ->
      check_true "empty file rejected"
        (try ignore (Graph_io.load ~path); false
         with Invalid_argument _ | Failure _ -> true))

let test_io_save_unwritable_path () =
  let path = "/nonexistent-umrs-dir/out.graph" in
  check_true "save into missing directory raises Sys_error"
    (try Graph_io.save (Generators.petersen ()) ~path; false
     with Sys_error _ -> true)

(* ---------- landmark decoding ---------- *)

let test_landmark_decode_roundtrip () =
  let g = Generators.torus 4 4 in
  let b = Landmark_scheme.build g in
  for v = 0 to 15 do
    let d =
      Landmark_scheme.decode_vertex (b.Scheme.local_encoding v)
        ~degree:(Graph.degree g v)
    in
    check_int "order" 16 d.Landmark_scheme.dec_order;
    check_int "self" v d.Landmark_scheme.dec_self;
    check_true "landmark ports present"
      (Array.length d.Landmark_scheme.dec_up_ports > 0);
    (* ports in range *)
    Array.iter
      (fun p -> check_true "port range" (p >= 0 && p <= Graph.degree g v))
      d.Landmark_scheme.dec_up_ports;
    Array.iter
      (fun (w, p) ->
        check_true "cluster entry range"
          (w >= 0 && w < 16 && p >= 1 && p <= Graph.degree g v))
      d.Landmark_scheme.dec_cluster;
    check_int "one child table per landmark"
      (Array.length d.Landmark_scheme.dec_up_ports)
      (Array.length d.Landmark_scheme.dec_children)
  done

let test_landmark_decode_consumes_exactly () =
  (* decoding must consume the full encoding: lengths agree *)
  let g = Generators.petersen () in
  let b = Landmark_scheme.build g in
  for v = 0 to 9 do
    let buf = b.Scheme.local_encoding v in
    (* re-encode from the decoded data is beyond scope; instead decode
       then check no trailing surplus by decoding a truncated buffer
       and expecting failure *)
    let bits = Umrs_bitcode.Bitbuf.to_bool_array buf in
    if Array.length bits > 8 then begin
      let truncated =
        Umrs_bitcode.Bitbuf.of_bool_array
          (Array.sub bits 0 (Array.length bits - 8))
      in
      check_true "truncation detected"
        (try
           ignore
             (Landmark_scheme.decode_vertex truncated
                ~degree:(Graph.degree g v));
           (* decoding may still succeed if the cut hits padding-free
              fields; accept either, the roundtrip test above is the
              real check *)
           true
         with Invalid_argument _ -> true)
    end
  done

let test_landmark_decode_huge_count_refused () =
  (* a 149-bit record claiming 2^40 - 1 landmarks must be refused before
     the decoder sizes an array by that count, not die in Array.init *)
  let module B = Umrs_bitcode.Bitbuf in
  let module C = Umrs_bitcode.Codes in
  let buf = B.create () in
  C.write_delta buf 2000;
  C.write_fixed buf 5 ~width:11;
  C.write_gamma buf (1 lsl 40);
  B.add_bits buf 0 ~width:40;
  check_int "record length" 149 (B.length buf);
  check_true "huge landmark count is refused"
    (match Landmark_scheme.decode_vertex buf ~degree:3 with
    | exception Invalid_argument _ -> true
    | _ -> false)

let suite =
  [
    case "io exact roundtrip (ports)" test_io_roundtrip_exact;
    case "io isolated vertices" test_io_empty_rows;
    case "io comments" test_io_comments;
    case "io rejects garbage" test_io_rejects_garbage;
    case "io file roundtrip" test_io_file_roundtrip;
    case "io load missing file" test_io_load_missing_file;
    case "io load truncated file" test_io_load_truncated_file;
    case "io load bad header" test_io_load_bad_header;
    case "io save unwritable path" test_io_save_unwritable_path;
    case "landmark decode roundtrip" test_landmark_decode_roundtrip;
    case "landmark decode boundary" test_landmark_decode_consumes_exactly;
    case "landmark decode refuses a huge count"
      test_landmark_decode_huge_count_refused;
    prop ~count:40 "io roundtrip on random graphs" arbitrary_connected_graph
      (fun g -> Graph.equal g (Graph_io.of_string (Graph_io.to_string g)));
    prop ~count:25 "io roundtrip preserves routing tables"
      arbitrary_connected_graph (fun g ->
        let g' = Graph_io.of_string (Graph_io.to_string g) in
        Table_scheme.next_hop_matrix g = Table_scheme.next_hop_matrix g');
  ]
