(* routing_lab: command-line laboratory for the Fraigniaud-Gavoille
   (1996) reproduction. Every experiment of DESIGN.md is reachable from
   here; `routing_lab --help` lists the commands.

   Exit codes: 2 for a caller mistake, 1 for a failure the caller could
   not have prevented, 125 (cmdliner's) only for an internal error. *)

open Cmdliner
open Umrs_graph
open Umrs_routing
open Umrs_core
module Q = Umrs_store.Query

let pf fmt = Format.printf fmt

let die code fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("routing_lab: " ^ msg);
      exit code)
    fmt

(* A caller mistake: one line on stderr naming the bad value, exit 2. *)
let usage_error fmt = die 2 fmt

(* A library function's refusal of the value [what] names (a flag and
   its value) is a caller mistake as well. *)
let refused what f = try f () with Invalid_argument msg -> usage_error "%s: %s" what msg

(* A failure: a corpus that is missing or damaged, a socket that does
   not answer, a server's or a peer's error. One line on stderr, exit
   1. *)
let failure fmt = die 1 fmt

(* ---------- shared converters ---------- *)

let generate ~seed family size =
  let st = Random.State.make [| seed; size; 0xF00 |] in
  match family with
  | "path" -> Generators.path size
  | "cycle" | "ring" -> Generators.cycle size
  | "complete" -> Generators.complete size
  | "star" -> Generators.star size
  | "wheel" -> Generators.wheel size
  | "hypercube" ->
    let rec dim d = if 1 lsl d >= size then d else dim (d + 1) in
    Generators.hypercube (dim 0)
  | "grid" ->
    let side = max 2 (int_of_float (sqrt (float_of_int size))) in
    Generators.grid side side
  | "torus" ->
    let side = max 3 (int_of_float (sqrt (float_of_int size))) in
    Generators.torus side side
  | "petersen" -> Generators.petersen ()
  | f when String.length f > 5 && String.sub f 0 5 = "file:" ->
    let path = String.sub f 5 (String.length f - 5) in
    (try Graph_io.load ~path with
    | Sys_error msg ->
      usage_error "cannot load graph file %S: %s" path msg
    | Invalid_argument msg ->
      usage_error "%S is not a valid graph file: %s" path msg)
  | "tree" -> Generators.random_tree st size
  | "caterpillar" ->
    Generators.caterpillar st ~spine:(max 1 (size / 2)) ~legs:(size / 2)
  | "ktree" -> Generators.k_tree st ~k:3 (max 4 size)
  | "outerplanar" -> Generators.maximal_outerplanar st (max 3 size)
  | "debruijn" ->
    let rec dim d = if 1 lsl d >= size then d else dim (d + 1) in
    Generators.de_bruijn_like (max 1 (dim 0))
  | "globe" ->
    let m = max 2 (int_of_float (sqrt (float_of_int size))) in
    Generators.globe ~meridians:m ~parallels:(max 1 ((size - 2) / m))
  | "random" ->
    Generators.random_connected st ~n:size
      ~m:(min (size * (size - 1) / 2) (2 * size))
  | "dense" ->
    Generators.random_connected st ~n:size
      ~m:(min (size * (size - 1) / 2) (size * size / 4))
  | "regular" ->
    Generators.random_regular st ~n:(size + (size mod 2)) ~d:3
  | "ba" -> Generators.barabasi_albert st ~n:size ~m:2
  | "ba3" -> Generators.barabasi_albert st ~n:size ~m:3
  | "powerlaw" -> Generators.chung_lu st ~n:size ~exponent:2.5
  | other -> usage_error "unknown graph family %S (see --help)" other

(* A generator's refusal of the requested size is a caller mistake. *)
let graph_of_family ~seed family size =
  try generate ~seed family size
  with Invalid_argument msg -> usage_error "-g %s -n %d: %s" family size msg

(* -s and --schemes take a Scheme.name: the registry's universal
   schemes, then the partial ones. *)
let schemes ~seed =
  Registry.universal ()
  @ [ Specialized.ecube; Specialized.ring;
      { Scheme.name = "kn-adversarial"; stretch_bound = Some 1.0;
        build =
          (fun g ->
            Specialized.build_complete_adversarial
              (Random.State.make [| seed |]) g) } ]

let scheme_names = List.map (fun s -> s.Scheme.name) (schemes ~seed:0)

(* A scheme that refuses the graph (ecube off a hypercube, ring off a
   cycle) is a caller mistake too. *)
let scheme_of_name ~seed name =
  match List.find_opt (fun s -> s.Scheme.name = name) (schemes ~seed) with
  | Some s ->
    { s with
      Scheme.build =
        (fun g ->
          try s.Scheme.build g
          with Invalid_argument msg -> usage_error "scheme %s: %s" name msg) }
  | None ->
    usage_error "unknown scheme %S (known: %s)" name
      (String.concat ", " scheme_names)

let family_arg =
  let doc =
    "Graph family: path, cycle, complete, star, wheel, hypercube, grid, \
     torus, petersen, tree, caterpillar, ktree, outerplanar, debruijn, \
     globe, random, dense, regular, ba, ba3, powerlaw - or file:PATH for a \
     saved graph."
  in
  Arg.(value & opt string "petersen" & info [ "g"; "graph" ] ~docv:"FAMILY" ~doc)

let size_arg default =
  Arg.(value & opt int default & info [ "n"; "size" ] ~docv:"N"
         ~doc:"Target graph order.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let scheme_arg =
  let doc = "Routing scheme: " ^ String.concat ", " scheme_names ^ "." in
  Arg.(value & opt string "routing-tables"
       & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc)

(* Every matrix argument: "[1 2; 1 1]", rows ;-separated. [strict]
   also asks every row to use a prefix alphabet {1..k}. *)
let parse_matrix ?(strict = false) flag s =
  try
    let m = Matrix.of_string s in
    if strict then Matrix.create m.Matrix.entries else m
  with
  | Invalid_argument msg -> usage_error "%s %S: %s" flag s msg
  | Failure _ -> usage_error "%s %S: entries must be integers" flag s

let matrix_arg ?strict () =
  Term.(const (parse_matrix ?strict "MATRIX")
        $ Arg.(required & pos 0 (some string) None & info [] ~docv:"MATRIX"
                 ~doc:"Matrix like \"[1 2; 1 1]\" (rows ;-separated)."))

(* -p/-q/-d: the instance dM(p,q) of Section 2, with each command's own
   defaults. A value below 1 or above [max] is a caller mistake, and so
   is, when [capped], an instance past the enumeration cap. *)
let instance_arg ?max ?(capped = false) (p, q, d) =
  let flag name default what =
    let doc =
      match max with
      | None -> what ^ "."
      | Some m -> Printf.sprintf "%s (<= %d)." what m
    in
    Arg.(value & opt int default & info [ name ] ~doc)
  in
  let check p q d =
    List.iter
      (fun (name, v) ->
        if v < 1 then usage_error "-%s %d: must be at least 1" name v;
        match max with
        | Some m when v > m -> usage_error "-%s %d: must be at most %d" name v m
        | _ -> ())
      [ ("p", p); ("q", q); ("d", d) ];
    if capped then begin
      try ignore (Enumerate.checked_total ~p ~q ~d ())
      with Invalid_argument msg -> usage_error "-p %d -q %d -d %d: %s" p q d msg
    end;
    (p, q, d)
  in
  Term.(const check $ flag "p" p "Rows" $ flag "q" q "Columns"
        $ flag "d" d "Entry bound")

let variant_arg =
  let variant_conv =
    Arg.enum [ ("full", Canonical.Full); ("positional", Canonical.Positional) ]
  in
  Arg.(value & opt variant_conv Canonical.Full & info [ "variant" ] ~docv:"VARIANT"
         ~doc:"Equivalence variant: full (Definition 2) or positional \
               (rows+columns only).")

let telemetry_arg =
  Arg.(value & opt (some string) None & info [ "telemetry" ] ~docv:"FILE"
         ~doc:"Write JSONL telemetry events to FILE (schema in DESIGN.md \
               section 8).")

(* Run [f] with the telemetry sink attached when requested; the sink is
   closed (flushing a final metrics event) even if [f] raises. *)
let with_telemetry telemetry f =
  match telemetry with None -> f () | Some path -> Telemetry.with_file path f

(* Install SIGTERM/SIGINT handlers now, before the line that invites
   the signal is printed; the returned function blocks until one of
   them fires. *)
let signal_wait () =
  let stop = Atomic.make false in
  let drain _ = Atomic.set stop true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
  Sys.set_signal Sys.sigint (Sys.Signal_handle drain);
  fun () ->
    while not (Atomic.get stop) do
      try Unix.sleepf 0.2 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
    done

(* ---------- corpus queries: one front end, three backends ---------- *)

(* --nth/--mem/--rank/--prefix/--cgraph, parsed into requests before
   any file is opened or socket connected. Requests come grouped by
   flag, in command-line order within each flag. *)
let requests_arg =
  let parse_prefix s =
    String.split_on_char ' ' (String.map (function ',' -> ' ' | c -> c) s)
    |> List.filter (fun f -> f <> "")
    |> List.map (fun f ->
           match int_of_string_opt f with
           | Some v -> v
           | None -> usage_error "--prefix %S: entries must be integers" s)
    |> Array.of_list
  in
  let request nths mems ranks prefixes cgraphs =
    List.concat
      [ List.map (fun i -> Q.Nth i) nths;
        List.map (fun s -> Q.Mem (parse_matrix "--mem" s)) mems;
        List.map (fun s -> Q.Rank (parse_matrix "--rank" s)) ranks;
        List.map (fun s -> Q.Range_prefix (parse_prefix s)) prefixes;
        List.map (fun i -> Q.Cgraph_of i) cgraphs ]
  in
  let all kind name docv doc =
    Arg.(value & opt_all kind [] & info [ name ] ~docv ~doc)
  in
  Term.(const request
        $ all Arg.int "nth" "I" "Fetch record I of the sorted corpus (repeatable)."
        $ all Arg.string "mem" "MATRIX"
            "Membership of a matrix like \"[1 2; 1 1]\" (repeatable)."
        $ all Arg.string "rank" "MATRIX"
            "Number of records strictly below MATRIX (repeatable)."
        $ all Arg.string "prefix" "ENTRIES"
            "Record range whose row-major entries start with ENTRIES, e.g. \
             \"1 2\" or 1,2 (repeatable)."
        $ all Arg.int "cgraph" "I"
            "The Lemma-2 graph of constraints of record I (repeatable).")

let pp_ints =
  Format.pp_print_array
    ~pp_sep:(fun f () -> Format.pp_print_char f ' ')
    Format.pp_print_int

let print_cgraph t =
  pf "%a@." Graph.pp t.Cgraph.graph;
  pf "constrained: %a@." pp_ints t.Cgraph.constrained;
  pf "targets:     %a@." pp_ints t.Cgraph.targets

(* The one printer of every corpus answer, whichever backend gave it. *)
let print_answer request response =
  match (request, response) with
  | Q.Nth n, Q.R_matrix m -> pf "nth %d: %s@." n (Matrix.to_string m)
  | Q.Mem m, Q.R_found b -> pf "mem %s: %b@." (Matrix.to_string m) b
  | Q.Rank m, Q.R_rank r -> pf "rank %s: %d@." (Matrix.to_string m) r
  | Q.Range_prefix p, Q.R_range (lo, hi) ->
    pf "prefix [%a]: records [%d, %d) - %d matching@." pp_ints p lo hi (hi - lo)
  | Q.Cgraph_of n, Q.R_graph t ->
    pf "cgraph %d:@." n;
    print_cgraph t
  | _ -> assert false

let print_info (h : Umrs_store.Corpus.header) =
  pf "corpus: p=%d q=%d d=%d count=%d checksum=%016Lx@." h.Umrs_store.Corpus.p
    h.Umrs_store.Corpus.q h.Umrs_store.Corpus.d h.Umrs_store.Corpus.count
    h.Umrs_store.Corpus.checksum

let client_ok what = function
  | Ok v -> v
  | Error e -> failure "%s: %s" what (Umrs_client.error_to_string e)

(* The two client backends: each request through the client's typed
   call, in order; the first error is a failure. *)
let ask_each ctx ~nth ~mem ~rank ~range_prefix ~cgraph requests =
  List.iter
    (fun r ->
      let flag =
        match r with
        | Q.Nth _ -> "--nth" | Q.Mem _ -> "--mem" | Q.Rank _ -> "--rank"
        | Q.Range_prefix _ -> "--prefix" | Q.Cgraph_of _ -> "--cgraph"
      in
      let ok x = client_ok (ctx ^ " " ^ flag) x in
      print_answer r
        (match r with
        | Q.Nth i -> Q.R_matrix (ok (nth i))
        | Q.Mem m -> Q.R_found (ok (mem m))
        | Q.Rank m -> Q.R_rank (ok (rank m))
        | Q.Range_prefix p ->
          let lo, hi = ok (range_prefix p) in
          Q.R_range (lo, hi)
        | Q.Cgraph_of i -> Q.R_graph (ok (cgraph i))))
    requests

(* ---------- commands ---------- *)

let evaluate_cmd =
  let run family size seed scheme_name telemetry =
    with_telemetry telemetry @@ fun () ->
    let g = graph_of_family ~seed family size in
    let scheme = scheme_of_name ~seed scheme_name in
    let e = Scheme.evaluate scheme ~graph_name:family g in
    pf "%a@." Scheme.pp_evaluation e
  in
  Cmd.v
    (Cmd.info "evaluate" ~doc:"Run a scheme on a graph; report memory and stretch.")
    Term.(const run $ family_arg $ size_arg 16 $ seed_arg $ scheme_arg
          $ telemetry_arg)

let route_cmd =
  let run family size seed scheme_name src dst =
    let g = graph_of_family ~seed family size in
    let scheme = scheme_of_name ~seed scheme_name in
    let n = Graph.order g in
    List.iter
      (fun (flag, v) ->
        if v < 0 || v >= n then
          usage_error "route: %s %d is not a vertex of %s (n = %d)" flag v
            family n)
      [ ("--src", src); ("--dst", dst) ];
    if src = dst then usage_error "route: --src and --dst are both %d" src;
    let b = scheme.Scheme.build g in
    let t = Routing_function.route b.Scheme.rf src dst in
    pf "route %d -> %d (%d hops): %a@." src dst t.Routing_function.hops
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.pp_print_string f " -> ")
         Format.pp_print_int)
      t.Routing_function.path;
    pf "headers: %a@."
      (Format.pp_print_list
         ~pp_sep:(fun f () -> Format.pp_print_string f ", ")
         Routing_function.pp_header)
      t.Routing_function.headers;
    let d = Bfs.dist b.Scheme.rf.Routing_function.graph src dst in
    pf "distance: %d (stretch %.3f)@." d
      (float_of_int t.Routing_function.hops /. float_of_int d)
  in
  let src = Arg.(value & opt int 0 & info [ "src" ] ~docv:"U" ~doc:"Source.") in
  let dst = Arg.(value & opt int 1 & info [ "dst" ] ~docv:"V" ~doc:"Destination.") in
  Cmd.v
    (Cmd.info "route" ~doc:"Trace a single routing path.")
    Term.(const run $ family_arg $ size_arg 16 $ seed_arg $ scheme_arg $ src $ dst)

let simulate_cmd =
  let run family size seed scheme_name pairs loss dead telemetry =
    with_telemetry telemetry @@ fun () ->
    if not (loss >= 0.0 && loss <= 1.0) then
      usage_error "simulate: --loss %g: must be in [0, 1]" loss;
    if pairs < 0 then usage_error "simulate: --pairs %d: must be >= 0" pairs;
    let g = graph_of_family ~seed family size in
    let n = Graph.order g in
    if pairs > 0 && n < 2 then
      usage_error "simulate: --pairs %d: %s has one vertex, no pair to draw" pairs family;
    let dead_links =
      List.map
        (fun s ->
          match List.map int_of_string_opt (String.split_on_char '-' s) with
          | [ Some u; Some v ]
            when u >= 0 && u < n && v >= 0 && v < n
                 && Graph.port_to g ~src:u ~dst:v <> None ->
            (u, v)
          | _ -> usage_error "simulate: --dead %s is not an edge U-V of %s" s family)
        dead
    in
    let scheme = scheme_of_name ~seed scheme_name in
    let rf = (scheme.Scheme.build g).Scheme.rf in
    let st = Random.State.make [| seed; 0x51 |] in
    let packet_pairs =
      match pairs with
      | 0 ->
        let acc = ref [] in
        for u = n - 1 downto 0 do
          for v = n - 1 downto 0 do
            if u <> v then acc := (u, v) :: !acc
          done
        done;
        !acc
      | k ->
        List.init k (fun _ ->
            let u = Random.State.int st n in
            let rec draw () =
              let v = Random.State.int st n in
              if v = u then draw () else v
            in
            (u, draw ()))
    in
    let stats =
      if dead_links <> [] then
        Simulator.run_with_dead_links ~dead:dead_links rf ~pairs:packet_pairs
      else if loss > 0.0 then
        Simulator.run_flaky st ~loss rf ~pairs:packet_pairs
      else Simulator.run rf ~pairs:packet_pairs
    in
    pf "%a@." Simulator.pp_stats stats
  in
  let pairs =
    Arg.(value & opt int 0 & info [ "pairs" ] ~docv:"K"
           ~doc:"Random packet count (0 = full total exchange).")
  in
  let loss =
    Arg.(value & opt float 0.0 & info [ "loss" ] ~docv:"P"
           ~doc:"Transient per-crossing loss probability.")
  in
  let dead =
    Arg.(value & opt_all string [] & info [ "dead" ] ~docv:"U-V"
           ~doc:"Dead link, e.g. --dead 0-1 (repeatable).")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Synchronous store-and-forward simulation with contention, \
             optional loss and dead links.")
    Term.(const run $ family_arg $ size_arg 16 $ seed_arg $ scheme_arg $ pairs
          $ loss $ dead $ telemetry_arg)

let canon_cmd =
  let run m variant =
    pf "input:     %s@." (Matrix.to_string m);
    pf "canonical: %s@." (Matrix.to_string (Canonical.canonical ~variant m))
  in
  Cmd.v
    (Cmd.info "canon" ~doc:"Canonical representative of a matrix (Definition 2).")
    Term.(const run $ matrix_arg () $ variant_arg)

let enumerate_cmd =
  let run (p, q, d) variant telemetry =
    with_telemetry telemetry @@ fun () ->
    let set = Enumerate.canonical_set ~variant ~p ~q ~d () in
    pf "|%dM(%d,%d)| = %d@." d p q (List.length set);
    List.iter
      (fun m ->
        pf "%-20s class size %d@." (Matrix.to_string m)
          (Enumerate.class_size ~variant ~p ~q ~d m))
      set
  in
  Cmd.v
    (Cmd.info "enumerate" ~doc:"Enumerate the canonical set dM(p,q).")
    Term.(const run $ instance_arg ~capped:true (2, 2, 3) $ variant_arg
          $ telemetry_arg)

let corpus_cmd =
  let variant_label = function
    | Canonical.Full -> "full"
    | Canonical.Positional -> "positional"
  in
  let pp_header (h : Umrs_store.Corpus.header) =
    pf "schema version: %d@." h.Umrs_store.Corpus.version;
    pf "instance:       p=%d q=%d d=%d variant=%s@." h.Umrs_store.Corpus.p
      h.Umrs_store.Corpus.q h.Umrs_store.Corpus.d
      (variant_label h.Umrs_store.Corpus.variant);
    pf "records:        %d (record = %d bytes)@." h.Umrs_store.Corpus.count
      (Umrs_store.Corpus.Record.bytes ~p:h.Umrs_store.Corpus.p
         ~q:h.Umrs_store.Corpus.q ~d:h.Umrs_store.Corpus.d);
    pf "checksum:       %016Lx@." h.Umrs_store.Corpus.checksum
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Corpus file.")
  in
  (* A FILE that cannot be read or is damaged is a failure, as it is
     for corpus query. *)
  let read cmd f path =
    try f ~path with
    | Invalid_argument msg -> failure "corpus %s: %s: %s" cmd path msg
    | Sys_error msg -> failure "corpus %s: %s" cmd msg
  in
  let build_cmd =
    let run (p, q, d) variant out domains checkpoint_dir checkpoint_every
        resume telemetry =
      with_telemetry telemetry @@ fun () ->
      match
        Umrs_store.Builder.build ~variant ?domains ?checkpoint_dir
          ~checkpoint_every ~resume ~p ~q ~d ~out ()
      with
      | o ->
        if o.Umrs_store.Builder.o_resumed_from > 0 then
          pf "resumed: skipped %d of %d raw matrices via checkpoints@."
            o.Umrs_store.Builder.o_resumed_from o.Umrs_store.Builder.o_total;
        pf "%d classes of %d raw matrices (%d shard%s, %d checkpoint%s) -> %s@."
          o.Umrs_store.Builder.o_classes o.Umrs_store.Builder.o_total
          o.Umrs_store.Builder.o_shards
          (if o.Umrs_store.Builder.o_shards = 1 then "" else "s")
          o.Umrs_store.Builder.o_checkpoints
          (if o.Umrs_store.Builder.o_checkpoints = 1 then "" else "s")
          out;
        pf "checksum %016Lx@."
          o.Umrs_store.Builder.o_header.Umrs_store.Corpus.checksum
      | exception Invalid_argument msg ->
        usage_error "corpus build: %s" msg
    in
    let out =
      Arg.(required & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Output corpus file.")
    in
    let domains =
      Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"K"
             ~doc:"Shard count (default: recommended domain count).")
    in
    let checkpoint_dir =
      Arg.(value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR"
             ~doc:"Persist per-shard progress into DIR; a killed run can \
                   continue with $(b,--resume).")
    in
    let checkpoint_every =
      Arg.(value & opt int (1 lsl 14) & info [ "checkpoint-every" ] ~docv:"N"
             ~doc:"Raw matrices between shard checkpoints.")
    in
    let resume =
      Arg.(value & flag & info [ "resume" ]
             ~doc:"Continue from the checkpoints in --checkpoint-dir (the \
                   manifest must match p/q/d/variant).")
    in
    Cmd.v
      (Cmd.info "build"
         ~doc:"Enumerate dM(p,q) and stream it to a corpus file, with \
               optional crash-safe checkpointing.")
      Term.(const run $ instance_arg ~capped:true (2, 2, 3) $ variant_arg $ out
            $ domains $ checkpoint_dir $ checkpoint_every $ resume
            $ telemetry_arg)
  in
  let info_cmd =
    let run path = pp_header (read "info" Umrs_store.Corpus.info path) in
    Cmd.v
      (Cmd.info "info" ~doc:"Print a corpus file's header.")
      Term.(const run $ file_arg)
  in
  let verify_cmd =
    let run path =
      let v = read "verify" Umrs_store.Corpus.verify path in
      pp_header v.Umrs_store.Corpus.v_header;
      if v.Umrs_store.Corpus.v_problems = [] then
        pf "verify: OK (%d records, checksum %016Lx)@."
          v.Umrs_store.Corpus.v_records_read
          v.Umrs_store.Corpus.v_computed_checksum
      else begin
        List.iter
          (fun s -> pf "verify: PROBLEM: %s@." s)
          v.Umrs_store.Corpus.v_problems;
        exit 1
      end
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:"Full integrity check: layout, checksum, record decoding, \
               sort order.")
      Term.(const run $ file_arg)
  in
  let show_cmd =
    let run path =
      let h, set = read "show" Umrs_store.Corpus.load path in
      pf "|%dM(%d,%d)| = %d (%s variant, from %s)@." h.Umrs_store.Corpus.d
        h.Umrs_store.Corpus.p h.Umrs_store.Corpus.q (List.length set)
        (variant_label h.Umrs_store.Corpus.variant)
        path;
      List.iter (fun m -> pf "%s@." (Matrix.to_string m)) set
    in
    Cmd.v
      (Cmd.info "show"
         ~doc:"Load a corpus and print its matrices (the load-from-disk \
               path later workloads use).")
      Term.(const run $ file_arg)
  in
  let index_arg =
    Arg.(value & opt (some string) None & info [ "index" ] ~docv:"FILE"
           ~doc:"Index file (default: the corpus path with .umrsx appended).")
  in
  let index_cmd =
    let run path stride out =
      match Umrs_store.Query.build ~corpus:path ?stride ?out () with
      | Ok m ->
        pf "indexed %d records (stride %d, %d sample%s) -> %s@."
          m.Umrs_store.Query.x_count m.Umrs_store.Query.x_stride
          m.Umrs_store.Query.x_samples
          (if m.Umrs_store.Query.x_samples = 1 then "" else "s")
          (Option.value out
             ~default:(Umrs_store.Query.index_path path));
        pf "index checksum %016Lx (corpus %016Lx)@."
          m.Umrs_store.Query.x_checksum m.Umrs_store.Query.x_corpus_checksum
      | Error e -> failure "corpus index: %s" (Q.error_to_string e)
      | exception Invalid_argument msg ->
        usage_error "corpus index: %s" msg
    in
    let stride =
      Arg.(value & opt (some int) None & info [ "stride" ] ~docv:"N"
             ~doc:"Records between samples (default 64): lookups scan at \
                   most N records after the binary search.")
    in
    let out =
      Arg.(value & opt (some string) None & info [ "o"; "out" ] ~docv:"FILE"
             ~doc:"Output index file (default: corpus path + .umrsx).")
    in
    Cmd.v
      (Cmd.info "index"
         ~doc:"Build the .umrsx sidecar index enabling random access and \
               membership queries without loading the corpus.")
      Term.(const run $ file_arg $ stride $ out)
  in
  let query_cmd =
    let run path index requests domains telemetry =
      if requests = [] then
        usage_error
          "corpus query: no requests (use --nth/--mem/--rank/--prefix/--cgraph)";
      with_telemetry telemetry @@ fun () ->
      match Q.open_ ~corpus:path ?index () with
      | Error e -> failure "corpus query: %s" (Q.error_to_string e)
      | Ok t ->
        Fun.protect ~finally:(fun () -> Q.close t) @@ fun () ->
        let requests = Array.of_list requests in
        (match Q.batch ?domains t requests with
        | responses -> Array.iter2 print_answer requests responses
        | exception Invalid_argument msg -> usage_error "corpus query: %s" msg)
    in
    let domains =
      Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"K"
             ~doc:"Fan the batch out over K domains (default: recommended \
                   domain count).")
    in
    Cmd.v
      (Cmd.info "query"
         ~doc:"Point and batched queries against an indexed corpus: record \
               fetch, membership, rank, prefix ranges, graphs of \
               constraints - all without loading the file.")
      Term.(const run $ file_arg $ index_arg $ requests_arg $ domains
            $ telemetry_arg)
  in
  let shard_cmd =
    let run path shards out_dir stride no_index =
      match
        Umrs_store.Shard.split ~corpus:path ~shards ?out_dir ?stride
          ~index:(not no_index) ()
      with
      | Ok pieces ->
        Array.iter
          (fun pc ->
            pf "shard %d: records [%d, %d) -> %s@."
              pc.Umrs_store.Shard.pc_index pc.Umrs_store.Shard.pc_lo
              pc.Umrs_store.Shard.pc_hi pc.Umrs_store.Shard.pc_corpus)
          pieces;
        pf "split %d records into %d contiguous key-range shard%s@."
          (Array.fold_left
             (fun acc pc ->
               acc + pc.Umrs_store.Shard.pc_hi - pc.Umrs_store.Shard.pc_lo)
             0 pieces)
          shards
          (if shards = 1 then "" else "s")
      | Error msg -> failure "corpus shard: %s" msg
      | exception Invalid_argument msg ->
        usage_error "corpus shard: %s" msg
    in
    let shards =
      Arg.(required & opt (some int) None & info [ "shards" ] ~docv:"N"
             ~doc:"Number of contiguous key-range pieces to cut.")
    in
    let out_dir =
      Arg.(value & opt (some string) None & info [ "out-dir" ] ~docv:"DIR"
             ~doc:"Directory for the pieces (default: the corpus's own \
                   directory; created if missing).")
    in
    let stride =
      Arg.(value & opt (some int) None & info [ "stride" ] ~docv:"N"
             ~doc:"Index sample stride for each piece's sidecar.")
    in
    let no_index =
      Arg.(value & flag & info [ "no-index" ]
             ~doc:"Skip building the per-piece .umrsx sidecar indexes.")
    in
    Cmd.v
      (Cmd.info "shard"
         ~doc:"Cut a corpus into contiguous key-range pieces - one \
               well-formed, individually indexed corpus per cluster node.")
      Term.(const run $ file_arg $ shards $ out_dir $ stride $ no_index)
  in
  Cmd.group
    (Cmd.info "corpus"
       ~doc:"Persistent on-disk canonical-set store: build (checkpointed, \
             resumable), info, verify, show, index, query, shard.")
    [ build_cmd; info_cmd; verify_cmd; show_cmd; index_cmd; query_cmd;
      shard_cmd ]

let cgraph_cmd =
  let run m pad =
    let t = Cgraph.of_matrix m in
    let t =
      if pad > 0 then
        refused (Printf.sprintf "cgraph --pad %d" pad) (fun () -> Cgraph.pad_to_order t ~n:pad)
      else t
    in
    print_cgraph t;
    (match Verify.check_cgraph t ~bound:Verify.below_two with
    | Ok () -> pf "forced-port property below stretch 2: OK@."
    | Error vs ->
      List.iter
        (fun v ->
          pf "VIOLATION at (%d,%d): expected %d, usable {%a}@." v.Verify.row
            v.Verify.col v.Verify.expected
            (Format.pp_print_list
               ~pp_sep:(fun f () -> Format.pp_print_char f ' ')
               Format.pp_print_int)
            v.Verify.usable)
        vs)
  in
  let pad =
    Arg.(value & opt int 0 & info [ "pad" ] ~docv:"N"
           ~doc:"Pad to order N with an attached path (Theorem 1).")
  in
  Cmd.v
    (Cmd.info "cgraph"
       ~doc:"Build and verify the graph of constraints of a matrix (Lemma 2).")
    Term.(const run $ matrix_arg ~strict:true () $ pad)

let lemma1_cmd =
  let run (p, q, d) =
    pf "d^(pq)                    = %s@." (Bignat.to_string (Count.total_raw ~p ~q ~d));
    pf "bound d^(pq)/(p!q!(d!)^p) = %s@."
      (Bignat.to_string (Count.lemma1_bound ~p ~q ~d));
    pf "log2 bound                = %.2f bits@." (Count.log2_lemma1_bound ~p ~q ~d);
    match Enumerate.count ~p ~q ~d () with
    | exact -> pf "exact |dM(p,q)|           = %d@." exact
    | exception Invalid_argument _ ->
      pf "exact |dM(p,q)|           = (too large to enumerate)@."
  in
  Cmd.v
    (Cmd.info "lemma1" ~doc:"Lemma 1 counting bound vs the exact count.")
    Term.(const run $ instance_arg (2, 2, 3))

let theorem1_cmd =
  let run ns epss =
    (* a value Lower_bound.choose_params refuses is a caller mistake; a
       valid (n, eps) whose construction does not fit is a result *)
    List.iter (fun n -> if n < 16 then usage_error "theorem1: --ns %d: need n >= 16" n) ns;
    List.iter
      (fun eps ->
        if not (eps > 0.0 && eps < 1.0) then
          usage_error "theorem1: --eps %g: need 0 < eps < 1" eps)
      epss;
    List.iter
      (fun n ->
        List.iter
          (fun eps ->
            match Lower_bound.theorem1 ~n ~eps with
            | b -> pf "%a@." Lower_bound.pp_bound b
            | exception Invalid_argument _ ->
              pf "n=%-8d eps=%.2f the construction does not fit in n vertices@." n eps)
          epss)
      ns
  in
  let ns =
    Arg.(value & opt (list int) [ 1024; 16384; 262144 ]
         & info [ "ns" ] ~docv:"N,..." ~doc:"Orders to sweep.")
  in
  let epss =
    Arg.(value & opt (list float) [ 0.25; 0.5; 0.75 ]
         & info [ "eps" ] ~docv:"E,..." ~doc:"Epsilons to sweep.")
  in
  Cmd.v
    (Cmd.info "theorem1"
       ~doc:"Theorem 1: per-router lower bound vs the table upper bound.")
    Term.(const run $ ns $ epss)

let reconstruct_cmd =
  let run (p, q, d) pad =
    let run pad_to () =
      Reconstruct.run_experiment ?pad_to ~p ~q ~d ~scheme:Table_scheme.build ()
    in
    let o =
      if pad > 0 then refused (Printf.sprintf "reconstruct --pad %d" pad) (run (Some pad))
      else run None ()
    in
    pf "classes=%d injective=%b forced=%b recovered=%b@." o.Reconstruct.classes
      o.Reconstruct.injective o.Reconstruct.all_forced
      o.Reconstruct.all_recovered;
    pf "information=%.2f bits, side=%.2f bits, net=%.2f bits@."
      o.Reconstruct.bits_information o.Reconstruct.bits_side
      o.Reconstruct.bits_net
  in
  let pad = Arg.(value & opt int 0 & info [ "pad" ] ~doc:"Pad graphs to order N.") in
  Cmd.v
    (Cmd.info "reconstruct"
       ~doc:"Theorem 1 end-to-end: build, route, rebuild every matrix of dM(p,q).")
    Term.(const run $ instance_arg ~capped:true (2, 2, 3) $ pad)

let compare_cmd =
  let run family size seed csv =
    let g = graph_of_family ~seed family size in
    let evals =
      Registry.compare_on ~graph_name:family g (Registry.universal ())
    in
    if csv then print_string (Registry.to_csv evals)
    else List.iter (fun e -> pf "%a@." Scheme.pp_evaluation e) evals
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV.") in
  Cmd.v
    (Cmd.info "compare"
       ~doc:"Run every universal scheme on one graph; table or CSV.")
    Term.(const run $ family_arg $ size_arg 16 $ seed_arg $ csv)

let broadcast_cmd =
  let run family size seed root =
    let g = graph_of_family ~seed family size in
    let n = Graph.order g in
    if root < 0 || root >= n then
      usage_error "broadcast: --root %d is not a vertex of %s (n = %d)" root family n;
    let rf = (Table_scheme.build g).Scheme.rf in
    let uni = Collective.broadcast_unicast rf ~root in
    let tree = Collective.broadcast_tree g ~root in
    pf "unicast: %d rounds, %d messages, %d reached@." uni.Collective.rounds
      uni.Collective.messages uni.Collective.reached;
    pf "tree:    %d rounds, %d messages, %d reached@." tree.Collective.rounds
      tree.Collective.messages tree.Collective.reached
  in
  let root = Arg.(value & opt int 0 & info [ "root" ] ~doc:"Broadcast root.") in
  Cmd.v
    (Cmd.info "broadcast" ~doc:"Unicast-storm vs BFS-tree broadcast costs.")
    Term.(const run $ family_arg $ size_arg 16 $ seed_arg $ root)

let check_cmd =
  let run () =
    let results = Spec.all () in
    let ok = ref true in
    List.iter
      (fun (name, passed) ->
        if not passed then ok := false;
        pf "%-45s %s@." name (if passed then "OK" else "FAILED"))
      results;
    if not !ok then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Run the executable checklist of every claim of the paper.")
    Term.(const run $ const ())

let deadlock_cmd =
  let run family size seed scheme_name =
    let g = graph_of_family ~seed family size in
    let scheme = scheme_of_name ~seed scheme_name in
    let b = scheme.Scheme.build g in
    match Deadlock.find_cycle b.Scheme.rf with
    | None -> pf "deadlock-free: channel dependency graph is acyclic@."
    | Some cycle ->
      pf "NOT deadlock-free; dependency cycle (%d channels):@."
        (List.length cycle);
      List.iter (fun (v, k) -> pf "  channel (vertex %d, port %d)@." v k) cycle
  in
  Cmd.v
    (Cmd.info "deadlock"
       ~doc:"Dally-Seitz deadlock-freedom check via channel dependencies.")
    Term.(const run $ family_arg $ size_arg 16 $ seed_arg $ scheme_arg)

let save_cmd =
  let run family size seed path =
    let g = graph_of_family ~seed family size in
    (try Graph_io.save g ~path with Sys_error msg -> failure "save: cannot write: %s" msg);
    pf "saved %s (n=%d, m=%d, ports preserved) to %s@." family
      (Umrs_graph.Graph.order g)
      (Umrs_graph.Graph.size g)
      path
  in
  let path =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"PATH"
           ~doc:"Output file.")
  in
  Cmd.v
    (Cmd.info "save" ~doc:"Serialize a graph family to a file (load with file:PATH).")
    Term.(const run $ family_arg $ size_arg 16 $ seed_arg $ path)

let global_cmd =
  let run ns =
    List.iter
      (fun n ->
        let b =
          refused (Printf.sprintf "global --ns %d" n) (fun () -> Lower_bound.global_theorem ~n)
        in
        pf "%a@." Lower_bound.pp_global b)
      ns
  in
  let ns =
    Arg.(value & opt (list int) [ 1024; 16384; 262144 ]
         & info [ "ns" ] ~docv:"N,..." ~doc:"Orders to sweep.")
  in
  Cmd.v
    (Cmd.info "global"
       ~doc:"The companion Omega(n^2) global bound for stretch < 2 ([6]).")
    Term.(const run $ ns)

let optimize_cmd =
  let run family size seed steps =
    let g = graph_of_family ~seed family size in
    let st = Random.State.make [| seed; 0x0b7 |] in
    let dfs = Interval_routing.compile ~labelling:Interval_routing.Dfs g in
    let opt = Interval_routing.optimize_labelling ~steps st g in
    pf "DFS labelling:       %d intervals/arc max, %d total@."
      (Interval_routing.compactness dfs)
      (Interval_routing.total_intervals dfs);
    pf "optimized labelling: %d intervals/arc max, %d total@."
      (Interval_routing.compactness opt)
      (Interval_routing.total_intervals opt)
  in
  let steps =
    Arg.(value & opt int 1000 & info [ "steps" ] ~doc:"Local-search steps.")
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Optimize the interval-routing vertex labelling ([5]).")
    Term.(const run $ family_arg $ size_arg 16 $ seed_arg $ steps)

let orbit_cmd =
  let run m d positional =
    let m' = Matrix.to_string m in
    if positional then
      pf "positional orbit size: %d@."
        (refused (Printf.sprintf "orbit %s --positional" m') (fun () -> Orbit.size_positional m))
    else
      pf "full-group orbit size: %d@."
        (refused (Printf.sprintf "orbit %s -d %d" m' d) (fun () -> Orbit.size ~d m))
  in
  let d = Arg.(value & opt int 3 & info [ "d" ] ~doc:"Entry bound.") in
  let positional =
    Arg.(value & flag & info [ "positional" ] ~doc:"Rows+columns group only.")
  in
  Cmd.v
    (Cmd.info "orbit" ~doc:"Orbit size of a matrix under the Definition-2 group.")
    Term.(const run $ matrix_arg () $ d $ positional)

let burnside_cmd =
  let run (p, q, d) =
    pf "positional |%dM(%d,%d)| (Burnside) = %s@." d p q
      (Bignat.to_string (Count.positional_exact ~p ~q ~d))
  in
  Cmd.v
    (Cmd.info "burnside"
       ~doc:"Exact positional class count via Burnside's lemma (any d).")
    Term.(const run $ instance_arg (2, 2, 2))

let estimate_cmd =
  let run (p, q, d) samples seed positional =
    let st = Random.State.make [| seed |] in
    let e =
      refused (Printf.sprintf "estimate --samples %d" samples) (fun () ->
          Orbit.estimate_classes ~positional st ~samples ~p ~q ~d)
    in
    pf "estimated |%dM(%d,%d)| = %.2f +- %.2f (%d samples)@." d p q
      e.Orbit.mean e.Orbit.std_error e.Orbit.samples
  in
  let samples = Arg.(value & opt int 200 & info [ "samples" ] ~doc:"Samples.") in
  let positional =
    Arg.(value & flag & info [ "positional" ] ~doc:"Rows+columns group only.")
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:"Monte-Carlo estimate of |dM(p,q)| by orbit sampling.")
    Term.(const run $ instance_arg ~max:4 (3, 3, 3) $ samples $ seed_arg
          $ positional)

let dot_cmd =
  let run family size seed ports =
    let g = graph_of_family ~seed family size in
    print_string (Umrs_graph.Dot.to_dot ~name:family ~show_ports:ports g)
  in
  let ports =
    Arg.(value & flag & info [ "ports" ] ~doc:"Annotate arcs with local ports.")
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Emit a Graphviz rendering of a graph family.")
    Term.(const run $ family_arg $ size_arg 16 $ seed_arg $ ports)

let figure1_cmd =
  let run () =
    let t = Petersen.instance () in
    pf "Petersen graph, A = {0..4} (outer), B = {5..9} (inner)@.";
    pf "%a@." Graph.pp t.Petersen.graph;
    pf "matrix of constraints (shortest path):@.%a@." Matrix.pp
      t.Petersen.matrix;
    pf "verified: %b@." (Petersen.verify t)
  in
  Cmd.v
    (Cmd.info "figure1" ~doc:"Figure 1: the Petersen-graph matrix of constraints.")
    Term.(const run $ const ())

let table1_cmd =
  let run n =
    Bounds_table.print ~n Format.std_formatter ();
    Format.print_newline ()
  in
  let n = Arg.(value & opt int 4096 & info [ "n" ] ~doc:"Evaluate formulas at order N.") in
  Cmd.v
    (Cmd.info "table1" ~doc:"Table 1: memory bounds vs stretch factor.")
    Term.(const run $ n)

let table2_cmd =
  let run family size seed scheme_names cutoff pairs csv =
    let g = graph_of_family ~seed family size in
    let names =
      List.filter
        (fun s -> s <> "")
        (String.split_on_char ',' scheme_names)
    in
    let schemes = List.map (scheme_of_name ~seed) names in
    if csv then pf "%s@." Registry.csv_header
    else begin
      pf "Table 2: stretch distributions vs bit-exact memory@.";
      pf "graph=%s n=%d m=%d seed=%d (exact all-pairs at n <= %d, else %d sampled pairs)@.@."
        family (Graph.order g) (Graph.size g) seed cutoff pairs;
      pf "%-14s %9s %11s %7s %7s %7s %7s %7s %9s %s@." "scheme" "local"
        "global" "mean" "p50" "p95" "p99" "max" "pairs" "method"
    end;
    List.iter
      (fun s ->
        let b = s.Scheme.build g in
        let d = Stretch_dist.measure ~cutoff ~pairs ~seed b.Scheme.rf in
        let mem_local_bits, mem_global_bits = Scheme.memory b in
        let e =
          { Scheme.scheme_name = s.Scheme.name; graph_name = family;
            order = Graph.order g; edges = Graph.size g; mem_local_bits;
            mem_global_bits; stretch = d }
        in
        if csv then pf "%s@." (Registry.to_csv_row e)
        else
          pf "%-14s %9d %11d %7.3f %7.3f %7.3f %7.3f %7.3f %9d %s@."
            s.Scheme.name mem_local_bits mem_global_bits
            d.Stretch_dist.ds_mean d.Stretch_dist.ds_p50
            d.Stretch_dist.ds_p95 d.Stretch_dist.ds_p99
            d.Stretch_dist.ds_max d.Stretch_dist.ds_pairs
            (if d.Stretch_dist.ds_exact then "exact" else "sampled"))
      schemes
  in
  let schemes_arg =
    Arg.(value & opt string "landmark-3,tz-3"
         & info [ "schemes" ] ~docv:"NAMES"
             ~doc:"Comma-separated scheme names to compare.")
  in
  let cutoff_arg =
    Arg.(value & opt int Stretch_dist.default_cutoff
         & info [ "cutoff" ] ~docv:"N"
             ~doc:"Exact all-pairs at or below this order; sampled above.")
  in
  let pairs_arg =
    Arg.(value & opt int Stretch_dist.default_sample_pairs
         & info [ "pairs" ] ~docv:"K"
             ~doc:"Sampled source/destination pairs above the cutoff.")
  in
  let csv = Arg.(value & flag & info [ "csv" ] ~doc:"Emit CSV.") in
  Cmd.v
    (Cmd.info "table2"
       ~doc:"Stretch distributions (mean/p50/p95/p99/max) vs bit-exact \
             memory on one graph - the Thorup-Zwick vs landmark comparison \
             on Internet-like workloads.")
    Term.(const run $ family_arg $ size_arg 1000 $ seed_arg $ schemes_arg
          $ cutoff_arg $ pairs_arg $ csv)

(* ---------- bench history tooling ---------- *)

let bench_cmd =
  let trend_cmd =
    let run path threshold =
      let entries, skipped = Umrs_bench.History.load ?path () in
      if skipped > 0 then pf "(skipped %d corrupt history lines)@." skipped;
      if entries = [] then begin
        pf "no history at %s@." (Umrs_bench.History.resolved_path ?path ());
        exit 0
      end;
      (* Group values per (suite, bench, metric), in file (= time) order. *)
      let tbl = Hashtbl.create 64 in
      let keys = ref [] in
      List.iter
        (fun e ->
          List.iter
            (fun (metric, v) ->
              let key =
                (e.Umrs_bench.History.h_suite, e.Umrs_bench.History.h_bench,
                 metric)
              in
              if not (Hashtbl.mem tbl key) then keys := key :: !keys;
              Hashtbl.replace tbl key
                (v :: (try Hashtbl.find tbl key with Not_found -> [])))
            e.Umrs_bench.History.h_metrics)
        entries;
      let keys = List.rev !keys in
      (* Direction heuristic: throughput-like metrics improve upward,
         everything else (seconds, latency, bits) improves downward. *)
      let higher_better metric =
        let has sub =
          let ls = String.lowercase_ascii metric in
          let n = String.length sub and m = String.length ls in
          let rec at i = i + n <= m && (String.sub ls i n = sub || at (i + 1)) in
          at 0
        in
        has "per_sec" || has "rps" || has "ops" || has "throughput"
      in
      pf "%-10s %-26s %-22s %4s %12s %12s %12s %8s@." "suite" "bench"
        "metric" "runs" "min" "max" "last" "vs first";
      let flagged = ref [] in
      List.iter
        (fun ((suite, bench, metric) as key) ->
          let vs = List.rev (Hashtbl.find tbl key) in
          let first = List.hd vs in
          let last = List.nth vs (List.length vs - 1) in
          let mn = List.fold_left min first vs in
          let mx = List.fold_left max first vs in
          let delta =
            if Float.abs first > 0.0 then (last -. first) /. first *. 100.0
            else 0.0
          in
          let improved v =
            if Float.abs first <= 0.0 then false
            else if higher_better metric then
              v >= first *. (1.0 +. threshold)
            else v <= first *. (1.0 -. threshold)
          in
          (* sustained: the last three runs all clear the threshold vs
             the first recorded value *)
          let tail3 =
            let k = List.length vs in
            List.filteri (fun i _ -> i >= k - 3) vs
          in
          let sustained = List.length vs >= 4 && List.for_all improved tail3 in
          if sustained then flagged := key :: !flagged;
          pf "%-10s %-26s %-22s %4d %12.4g %12.4g %12.4g %+7.1f%%%s@." suite
            bench metric (List.length vs) mn mx last delta
            (if sustained then "  <- refresh?" else ""))
        keys;
      match List.rev !flagged with
      | [] -> pf "@.no sustained >%.0f%% improvements@." (threshold *. 100.0)
      | fl ->
        pf "@.baseline-refresh candidates (last 3 runs all >%.0f%% better \
            than the first):@."
          (threshold *. 100.0);
        List.iter
          (fun (suite, bench, metric) ->
            pf "  %s %s %s@." suite bench metric)
          fl
    in
    let path_arg =
      Arg.(value & opt (some string) None
           & info [ "history" ] ~docv:"FILE"
               ~doc:"History file (default BENCH_HISTORY.jsonl, or \
                     UMRS_BENCH_HISTORY).")
    in
    let threshold_arg =
      Arg.(value & opt float 0.25
           & info [ "threshold" ] ~docv:"FRAC"
               ~doc:"Improvement fraction that makes a committed baseline \
                     look slack.")
    in
    Cmd.v
      (Cmd.info "trend"
         ~doc:"Per-(bench, metric) trajectory over BENCH_HISTORY.jsonl: \
               min/max/last, and flag sustained improvements as \
               baseline-refresh candidates.")
      Term.(const run $ path_arg $ threshold_arg)
  in
  Cmd.group
    (Cmd.info "bench"
       ~doc:"Tooling over the append-only bench history.")
    [ trend_cmd ]

(* ---------- serving ---------- *)

let addr_conv =
  let parse s =
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "unix" ->
      Ok (Umrs_server.Wire.Unix_sock (String.sub s (i + 1) (String.length s - i - 1)))
    | Some i when String.sub s 0 i = "tcp" -> (
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match String.rindex_opt rest ':' with
      | None -> Error (`Msg (Printf.sprintf "tcp address %S needs HOST:PORT" s))
      | Some j -> (
        let host = String.sub rest 0 j in
        match int_of_string_opt (String.sub rest (j + 1) (String.length rest - j - 1)) with
        | Some port when port >= 0 && port <= 0xFFFF ->
          Ok (Umrs_server.Wire.Tcp (host, port))
        | _ -> Error (`Msg (Printf.sprintf "bad port in %S" s))))
    | _ ->
      Error
        (`Msg
           (Printf.sprintf
              "address %S is neither unix:PATH nor tcp:HOST:PORT" s))
  in
  let print ppf a =
    Format.pp_print_string ppf (Umrs_server.Wire.addr_to_string a)
  in
  Arg.conv (parse, print)

let addr_arg =
  Arg.(required & opt (some addr_conv) None
       & info [ "a"; "addr" ] ~docv:"ADDR"
           ~doc:"Service address: unix:PATH or tcp:HOST:PORT (port 0 asks \
                 the kernel; the resolved port is printed).")

let serve_cmd =
  let run addr workers queue cache corpus index max_conns telemetry =
    with_telemetry telemetry @@ fun () ->
    let cfg =
      { (Umrs_server.Server.default_config addr) with
        Umrs_server.Server.workers; queue_capacity = queue;
        cache_capacity = cache; corpus; index; max_conns }
    in
    match Umrs_server.Server.start cfg with
    | Error msg -> failure "serve: %s" msg
    | Ok srv ->
      Umrs_server.Server.install_signal_handlers srv;
      pf "serving on %s (%d worker%s, queue %d, cache %d, max-conns %d%s)@."
        (Umrs_server.Wire.addr_to_string (Umrs_server.Server.addr srv))
        workers
        (if workers = 1 then "" else "s")
        queue cache max_conns
        (match corpus with
        | None -> ", no corpus"
        | Some c -> Printf.sprintf ", corpus %s" c);
      pf "SIGTERM/SIGINT drain in-flight requests and exit@.";
      Umrs_server.Server.wait srv
  in
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"K"
           ~doc:"Worker domains executing requests.")
  in
  let queue =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N"
           ~doc:"Bounded job queue; a full queue answers OVERLOADED.")
  in
  let cache =
    Arg.(value & opt int 128 & info [ "cache" ] ~docv:"N"
           ~doc:"Evaluation LRU entries.")
  in
  let corpus =
    Arg.(value & opt (some string) None & info [ "corpus" ] ~docv:"FILE"
           ~doc:"Indexed corpus to serve (enables info/nth/mem/rank/prefix/\
                 cgraph requests).")
  in
  let index =
    Arg.(value & opt (some string) None & info [ "index" ] ~docv:"FILE"
           ~doc:"Sidecar index (default: corpus path + .umrsx).")
  in
  let max_conns =
    Arg.(value & opt int 10_240 & info [ "max-conns" ] ~docv:"N"
           ~doc:"Concurrent connection cap; excess are closed at accept.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Serve corpus queries and scheme evaluations over a socket \
             (bounded queue, deadlines, evaluation cache, graceful drain).")
    Term.(const run $ addr_arg $ workers $ queue $ cache $ corpus $ index
          $ max_conns $ telemetry_arg)

let remote_cmd =
  let module C = Umrs_client in
  let run addr retries deadline_ms ping want_stats want_info requests
      eval_scheme family size seed sleep =
    let evaluation =
      Option.map (fun s -> (s, graph_of_family ~seed family size)) eval_scheme
    in
    let c = client_ok "remote connect" (C.connect ~retries addr) in
    Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
    if ping then begin
      client_ok "remote ping" (C.ping c);
      pf "ping: ok@."
    end;
    if want_info then print_info (client_ok "remote info" (C.corpus_info c));
    ask_each "remote" ~nth:(C.nth c) ~mem:(C.mem c) ~rank:(C.rank c)
      ~range_prefix:(C.range_prefix c) ~cgraph:(C.cgraph c) requests;
    (match evaluation with
    | None -> ()
    | Some (scheme, g) ->
      pf "%a@." Scheme.pp_evaluation
        (client_ok "remote evaluate"
           (C.evaluate c ~deadline_ms ~scheme ~graph_name:family g)));
    (match sleep with
    | None -> ()
    | Some ms ->
      pf "slept %d ms@." (client_ok "remote sleep" (C.sleep_ms c ~deadline_ms ms)));
    if want_stats then begin
      let s = client_ok "remote stats" (C.stats c) in
      pf "connections=%d requests=%d overloaded=%d timeouts=%d rejected=%d@."
        s.Umrs_server.Wire.st_connections s.Umrs_server.Wire.st_requests
        s.Umrs_server.Wire.st_overloaded s.Umrs_server.Wire.st_timeouts
        s.Umrs_server.Wire.st_rejected;
      pf "cache hits=%d misses=%d evictions=%d queue %d/%d (hwm %d) \
          workers=%d draining=%b@."
        s.Umrs_server.Wire.st_cache_hits s.Umrs_server.Wire.st_cache_misses
        s.Umrs_server.Wire.st_cache_evictions
        s.Umrs_server.Wire.st_queue_depth s.Umrs_server.Wire.st_queue_capacity
        s.Umrs_server.Wire.st_queue_hwm
        s.Umrs_server.Wire.st_workers s.Umrs_server.Wire.st_draining;
      pf "live connections=%d loop wakeups=%d@."
        s.Umrs_server.Wire.st_live_conns s.Umrs_server.Wire.st_loop_wakeups
    end
  in
  let retries =
    Arg.(value & opt int 5 & info [ "retries" ] ~docv:"K"
           ~doc:"Connection retries with doubling backoff.")
  in
  let deadline =
    Arg.(value & opt int 0 & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Server-side deadline for evaluate/sleep (0 = none).")
  in
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Round-trip a nonce.") in
  let stats =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print server counters.")
  in
  let want_info =
    Arg.(value & flag & info [ "info" ] ~doc:"Print the served corpus header.")
  in
  let eval_scheme =
    Arg.(value & opt (some string) None & info [ "evaluate" ] ~docv:"SCHEME"
           ~doc:"Evaluate a registered scheme server-side on --graph/--size.")
  in
  let sleep =
    Arg.(value & opt (some int) None & info [ "sleep-ms" ] ~docv:"MS"
           ~doc:"Hold a worker for MS milliseconds (diagnostics).")
  in
  Cmd.v
    (Cmd.info "remote"
       ~doc:"Query a running serve instance: ping, stats, corpus lookups, \
             remote evaluation.")
    Term.(const run $ addr_arg $ retries $ deadline $ ping $ stats $ want_info
          $ requests_arg $ eval_scheme $ family_arg $ size_arg 16 $ seed_arg
          $ sleep)

let chaos_cmd =
  let run fault_seed crash_matrix (p, q, d) domains checkpoint_every
      intensities requests workers telemetry =
    with_telemetry telemetry @@ fun () ->
    let tmp = Filename.temp_file "umrs_chaos" "" in
    Sys.remove tmp;
    Unix.mkdir tmp 0o755;
    pf "fault seed %d (reproduce any outcome below with --fault-seed %d)@."
      fault_seed fault_seed;
    if crash_matrix then begin
      let progress ~at ~points =
        if at mod 25 = 0 then pf "crash point %d/%d...@." at points
      in
      let s =
        Umrs_chaos.Harness.crash_matrix ~domains ~checkpoint_every
          ~seed:fault_seed ~on_progress:progress ~p ~q ~d ~scratch:tmp ()
      in
      List.iter
        (fun f ->
          pf "FAILED at point %d (seed %d): %s@." f.Umrs_chaos.Harness.f_at
            f.Umrs_chaos.Harness.f_seed f.Umrs_chaos.Harness.f_detail)
        s.Umrs_chaos.Harness.s_failures;
      pf "crash matrix (%d,%d,%d) x %d domains: %d points, %d crashes, %d \
          failures@."
        p q d domains s.Umrs_chaos.Harness.s_points
        s.Umrs_chaos.Harness.s_crashes
        (List.length s.Umrs_chaos.Harness.s_failures);
      if s.Umrs_chaos.Harness.s_failures <> [] then exit 1
    end
    else begin
      let corpus = Filename.concat tmp "chaos.corpus" in
      ignore (Umrs_store.Builder.build ~p ~q ~d ~out:corpus ());
      (match Umrs_store.Query.build ~corpus () with
      | Ok _ -> ()
      | Error e -> failure "chaos: index build: %s" (Q.error_to_string e));
      let intensities =
        if intensities = [] then [ 0.02; 0.10 ] else intensities
      in
      List.iter
        (fun intensity ->
          let sock =
            Filename.concat tmp
              (Printf.sprintf "chaos_%.0f.sock" (1000. *. intensity))
          in
          match
            Umrs_chaos.Storm.run_level ~seed:fault_seed ~requests ~workers
              ~intensity ~corpus ~addr:(Umrs_server.Wire.Unix_sock sock) ()
          with
          | Error e -> failure "chaos: storm %.2f: %s" intensity e
          | Ok l ->
            pf "storm %.2f: %d ok / %d degraded / %d failed, %d worker \
                crash%s, recovery p50 %.1fms p95 %.1fms (%.2fs)@."
              intensity l.Umrs_chaos.Storm.l_success
              l.Umrs_chaos.Storm.l_degraded l.Umrs_chaos.Storm.l_failed
              l.Umrs_chaos.Storm.l_worker_crashes
              (if l.Umrs_chaos.Storm.l_worker_crashes = 1 then "" else "es")
              (1e3 *. l.Umrs_chaos.Storm.l_recovery_p50)
              (1e3 *. l.Umrs_chaos.Storm.l_recovery_p95)
              l.Umrs_chaos.Storm.l_seconds)
        intensities
    end
  in
  let fault_seed =
    Arg.(value & opt int 0x5EED42 & info [ "fault-seed" ] ~docv:"N"
           ~doc:"Seed for the deterministic fault schedule; a failure \
                 reproduces from the seed it was observed under.")
  in
  let crash_matrix =
    Arg.(value & flag & info [ "crash-matrix" ]
           ~doc:"Instead of storming a live server, sweep a simulated power \
                 loss across every fault point of a checkpointed corpus \
                 build and check atomic publication + byte-identical \
                 resume at each.")
  in
  let domains =
    Arg.(value & opt int 1 & info [ "domains" ] ~docv:"K"
           ~doc:"Builder domains for --crash-matrix.")
  in
  let checkpoint_every =
    Arg.(value & opt int 1024 & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Raw matrices between checkpoints for --crash-matrix.")
  in
  let intensities =
    Arg.(value & opt_all float [] & info [ "intensity" ] ~docv:"F"
           ~doc:"Storm fault probability per fault point (repeatable; \
                 default 0.02 and 0.10).")
  in
  let requests =
    Arg.(value & opt int 300 & info [ "requests" ] ~docv:"N"
           ~doc:"Requests per storm level.")
  in
  let workers =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"K"
           ~doc:"Server worker domains per storm level.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Fault-injection drills: storm a live server through a seeded \
             fault schedule, or sweep simulated power loss across every \
             fault point of a corpus build (--crash-matrix).")
    Term.(const run $ fault_seed $ crash_matrix
          $ instance_arg ~capped:true (2, 4, 3) $ domains $ checkpoint_every
          $ intensities $ requests $ workers $ telemetry_arg)

(* ---------- cluster ---------- *)

let cluster_cmd =
  let module Cluster = Umrs_cluster.Cluster in
  let module Cl = Umrs_cluster.Client in
  let module Wire = Umrs_server.Wire in
  let serve_cmd =
    let run corpus shards dir replicas workers queue cache map_version
        kill_primaries kill_after =
      List.iter
        (fun k ->
          if k < 0 || k >= shards then
            usage_error "cluster serve: --kill-primary %d: no such shard \
                         (--shards %d)" k shards)
        kill_primaries;
      match
        Cluster.start ~corpus ~shards ~dir ~replicas ~workers
          ~queue_capacity:queue ~cache_capacity:cache ~map_version ()
      with
      | Error msg -> failure "cluster serve: %s" msg
      | Ok cl ->
        pf "cluster up: %d shard%s x %d node%s (map v%d -> %s)@." shards
          (if shards = 1 then "" else "s")
          (replicas + 1)
          (if replicas = 0 then "" else "s")
          map_version (Cluster.map_path cl);
        Array.iteri
          (fun k sh ->
            pf "  shard %d: records [%d, %d) primary %s%s@." k sh.Wire.sh_lo
              sh.Wire.sh_hi
              (Wire.addr_to_string sh.Wire.sh_primary)
              (match sh.Wire.sh_replicas with
              | [] -> ""
              | rs ->
                ", replicas "
                ^ String.concat ", " (List.map Wire.addr_to_string rs)))
          (Cluster.map cl).Wire.sm_shards;
        let wait = signal_wait () in
        pf "SIGTERM/SIGINT drain every node and exit@.";
        (* the node-loss drill: kill the named primaries after a delay,
           under whatever live traffic the operator is running *)
        if kill_primaries <> [] then
          ignore
            (Thread.create
               (fun () ->
                 Unix.sleepf kill_after;
                 List.iter
                   (fun k ->
                     pf "drill: killing primary of shard %d@." k;
                     Cluster.kill_primary cl k)
                   kill_primaries)
               ());
        wait ();
        Cluster.wait cl;
        pf "cluster drained (%d worker crash%s)@."
          (Cluster.worker_crashes cl)
          (if Cluster.worker_crashes cl = 1 then "" else "es")
    in
    let corpus =
      Arg.(required & opt (some string) None & info [ "corpus" ] ~docv:"FILE"
             ~doc:"Corpus to shard and serve.")
    in
    let shards =
      Arg.(value & opt int 3 & info [ "shards" ] ~docv:"N"
             ~doc:"Number of key-range shards.")
    in
    let dir =
      Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR"
             ~doc:"Directory for the pieces, the shard-map file and every \
                   node's unix socket.")
    in
    let replicas =
      Arg.(value & opt int 1 & info [ "replicas" ] ~docv:"R"
             ~doc:"Failover nodes per shard beyond the primary.")
    in
    let workers =
      Arg.(value & opt int 1 & info [ "workers" ] ~docv:"K"
             ~doc:"Worker domains per node.")
    in
    let queue =
      Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N"
             ~doc:"Bounded job queue per node.")
    in
    let cache =
      Arg.(value & opt int 8 & info [ "cache" ] ~docv:"N"
             ~doc:"Evaluation LRU entries per node.")
    in
    let map_version =
      Arg.(value & opt int 1 & info [ "map-version" ] ~docv:"V"
             ~doc:"Topology version stamped into the shard map.")
    in
    let kill_primaries =
      Arg.(value & opt_all int [] & info [ "kill-primary" ] ~docv:"K"
             ~doc:"Node-loss drill: kill shard K's primary after \
                   --kill-after seconds (repeatable).")
    in
    let kill_after =
      Arg.(value & opt float 5.0 & info [ "kill-after" ] ~docv:"S"
             ~doc:"Delay before the --kill-primary drill fires.")
    in
    Cmd.v
      (Cmd.info "serve"
         ~doc:"Shard a corpus and serve it from a multi-node cluster: one \
               primary plus replicas per key range, shard map on disk and \
               over the wire, optional node-loss drill.")
      Term.(const run $ corpus $ shards $ dir $ replicas $ workers $ queue
            $ cache $ map_version $ kill_primaries $ kill_after)
  in
  let query_cmd =
    let run addr ping want_info want_map requests want_stats =
      let c = client_ok "cluster query fetch" (Cl.fetch addr) in
      Fun.protect ~finally:(fun () -> Cl.close c) @@ fun () ->
      if ping then begin
        client_ok "cluster query ping" (Cl.ping c);
        pf "ping: every shard group answered@."
      end;
      if want_info then
        print_info (client_ok "cluster query info" (Cl.corpus_info c));
      if want_map then begin
        let m = Cl.map c in
        pf "shard map v%d: %d records over %d shard%s@." m.Wire.sm_version
          m.Wire.sm_count
          (Array.length m.Wire.sm_shards)
          (if Array.length m.Wire.sm_shards = 1 then "" else "s");
        Array.iteri
          (fun k sh ->
            pf "  shard %d: [%d, %d) primary %s (%d replica%s)@." k
              sh.Wire.sh_lo sh.Wire.sh_hi
              (Wire.addr_to_string sh.Wire.sh_primary)
              (List.length sh.Wire.sh_replicas)
              (if List.length sh.Wire.sh_replicas = 1 then "" else "s"))
          m.Wire.sm_shards
      end;
      ask_each "cluster query" ~nth:(Cl.nth c) ~mem:(Cl.mem c) ~rank:(Cl.rank c)
        ~range_prefix:(Cl.range_prefix c) ~cgraph:(Cl.cgraph c) requests;
      if want_stats then begin
        let s = Cl.stats c in
        pf "routed calls=%d failovers=%d map refreshes=%d@." s.Cl.s_calls
          s.Cl.s_failovers s.Cl.s_refreshes
      end
    in
    let ping =
      Arg.(value & flag & info [ "ping" ]
             ~doc:"Round-trip a nonce through every shard group.")
    in
    let want_info =
      Arg.(value & flag & info [ "info" ]
             ~doc:"Print the unsharded corpus's identity (from the map, no \
                   round-trip).")
    in
    let want_map =
      Arg.(value & flag & info [ "map" ] ~doc:"Print the fetched shard map.")
    in
    let want_stats =
      Arg.(value & flag & info [ "stats" ]
             ~doc:"Print client routing counters (calls, failovers, \
                   refreshes).")
    in
    Cmd.v
      (Cmd.info "query"
         ~doc:"Query a cluster through its shard map: bootstrap from any \
               node, route by rank or key, scatter prefix ranges, fail \
               over to replicas.")
      Term.(const run $ addr_arg $ ping $ want_info $ want_map $ requests_arg
            $ want_stats)
  in
  (* write the resolved address where scripts (and the bench harness)
     can find it — port 0 means only the process knows its port *)
  let write_addr_file path addr =
    match path with
    | None -> ()
    | Some p ->
      let oc = open_out p in
      output_string oc (Wire.addr_to_string addr);
      close_out oc
  in
  let addr_file_arg =
    Arg.(value & opt (some string) None & info [ "addr-file" ] ~docv:"FILE"
           ~doc:"Write the resolved listening address (unix:PATH or \
                 tcp:HOST:PORT) to FILE once bound.")
  in
  let listen_arg =
    Arg.(value & opt addr_conv (Umrs_server.Wire.Tcp ("127.0.0.1", 0))
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Listening address (default tcp:127.0.0.1:0 — the kernel \
                   picks a port; see --addr-file).")
  in
  let heartbeat_arg =
    Arg.(value & opt int 500 & info [ "heartbeat-ms" ] ~docv:"MS"
           ~doc:"Heartbeat interval in milliseconds.")
  in
  let coordinator_cmd =
    let module Co = Umrs_cluster.Coordinator in
    let run corpus dir listen shards heartbeat_ms miss workers addr_file
        telemetry =
      with_telemetry telemetry @@ fun () ->
      let cfg =
        { (Co.default_config ~dir ~corpus ~listen) with
          Co.shards; heartbeat = float_of_int heartbeat_ms /. 1000.0;
          miss_limit = miss; workers }
      in
      match Co.start cfg with
      | Error msg -> failure "cluster coordinator: %s" msg
      | Ok co ->
        write_addr_file addr_file (Co.addr co);
        pf "coordinator up at %s: %d shard%s, beat %dms, dead after %d \
            missed (map -> %s)@."
          (Wire.addr_to_string (Co.addr co))
          shards
          (if shards = 1 then "" else "s")
          heartbeat_ms miss (Co.map_path co);
        let wait = signal_wait () in
        pf "SIGTERM/SIGINT drain and exit@.";
        wait ();
        Co.shutdown co;
        Co.wait co;
        pf "coordinator drained: topology v%d, %d death%s, %d promotion%s@."
          (Co.version co) (Co.deaths co)
          (if Co.deaths co = 1 then "" else "s")
          (Co.promotions co)
          (if Co.promotions co = 1 then "" else "s")
    in
    let corpus =
      Arg.(required & opt (some string) None & info [ "corpus" ] ~docv:"FILE"
             ~doc:"The full unsharded corpus the cluster serves.")
    in
    let dir =
      Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR"
             ~doc:"Directory for the shard-map file (swept of stale \
                   sockets/tempfiles on start).")
    in
    let shards =
      Arg.(value & opt int 2 & info [ "shards" ] ~docv:"N"
             ~doc:"Initial shard count when no map file exists; an existing \
                   map's (possibly resharded) topology is adopted instead.")
    in
    let miss =
      Arg.(value & opt int 4 & info [ "miss" ] ~docv:"N"
             ~doc:"Heartbeats a node may miss before it is declared dead.")
    in
    let workers =
      Arg.(value & opt int 2 & info [ "workers" ] ~docv:"K"
             ~doc:"Worker domains for the coordinator's own data plane.")
    in
    Cmd.v
      (Cmd.info "coordinator"
         ~doc:"Run the cluster coordinator: nodes join it, heartbeat \
               against it, and receive resharding work from it; it \
               publishes the versioned shard map and serves the full \
               corpus as the donor of last resort.")
      Term.(const run $ corpus $ dir $ listen_arg $ shards $ heartbeat_arg
            $ miss $ workers $ addr_file_arg $ telemetry_arg)
  in
  let join_cmd =
    let module Ms = Umrs_cluster.Membership in
    let run coordinator dir listen advertise heartbeat_ms workers addr_file
        telemetry =
      with_telemetry telemetry @@ fun () ->
      let cfg =
        { (Ms.default_config ~coordinator ~dir ~listen) with
          Ms.advertise; heartbeat = float_of_int heartbeat_ms /. 1000.0;
          workers }
      in
      match Ms.start cfg with
      | Error msg -> failure "cluster join: %s" msg
      | Ok node ->
        write_addr_file addr_file (Ms.self_addr node);
        (match Ms.range node with
        | Some (lo, hi) ->
          pf "joined as %s: records [%d, %d), checksum %016Lx, %d catch-up \
              fetch%s@."
            (Wire.addr_to_string (Ms.self_addr node))
            lo hi (Ms.checksum node) (Ms.catchups node)
            (if Ms.catchups node = 1 then "" else "es")
        | None ->
          pf "joined as %s@." (Wire.addr_to_string (Ms.self_addr node)));
        let wait = signal_wait () in
        pf "SIGTERM/SIGINT leave gracefully and exit@.";
        wait ();
        Ms.stop node;
        Ms.wait node;
        pf "node left (topology v%d)@." (Ms.version node)
    in
    let coordinator =
      Arg.(required & opt (some addr_conv) None
           & info [ "coordinator" ] ~docv:"ADDR"
               ~doc:"The coordinator's address.")
    in
    let dir =
      Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR"
             ~doc:"This node's data directory: piece files live here, and \
                   a crashed predecessor's sockets/tempfiles are swept on \
                   start. A returning node re-uses a piece that still \
                   matches the canonical checksum and re-fetches only what \
                   went stale.")
    in
    let advertise =
      Arg.(value & opt (some addr_conv) None
           & info [ "advertise" ] ~docv:"ADDR"
               ~doc:"Address to register with the coordinator (what other \
                     processes connect to); default: the resolved listen \
                     address.")
    in
    let workers =
      Arg.(value & opt int 2 & info [ "workers" ] ~docv:"K"
             ~doc:"Worker domains for this node's data plane.")
    in
    Cmd.v
      (Cmd.info "join"
         ~doc:"Start a node and join it to a running coordinator: it is \
               assigned a key range, streams (or re-uses) its piece, \
               enters the map, and heartbeats; killed and restarted with \
               the same --dir it catches up instead of re-fetching \
               everything.")
      Term.(const run $ coordinator $ dir $ listen_arg $ advertise
            $ heartbeat_arg $ workers $ addr_file_arg $ telemetry_arg)
  in
  let with_coordinator ctx addr f =
    let c = client_ok ctx (Umrs_client.connect addr) in
    Fun.protect ~finally:(fun () -> Umrs_client.close c) (fun () -> f c)
  in
  let reshard_cmd =
    let run addr split merge =
      let op =
        match (split, merge) with
        | Some k, None -> Wire.Split k
        | None, Some k -> Wire.Merge k
        | _ ->
          usage_error "cluster reshard: exactly one of --split or --merge"
      in
      with_coordinator "cluster reshard" addr @@ fun c ->
      pf "%s@." (client_ok "cluster reshard" (Umrs_client.reshard c op))
    in
    let split =
      Arg.(value & opt (some int) None & info [ "split" ] ~docv:"K"
             ~doc:"Split shard K's key range in half; a poached node \
                   streams the upper half while the donor double-serves.")
    in
    let merge =
      Arg.(value & opt (some int) None & info [ "merge" ] ~docv:"K"
             ~doc:"Merge shard K with shard K+1.")
    in
    Cmd.v
      (Cmd.info "reshard"
         ~doc:"Ask a live coordinator to split or merge a key range online \
               — no request window is lost during the handoff.")
      Term.(const run $ addr_arg $ split $ merge)
  in
  let status_cmd =
    let run addr =
      with_coordinator "cluster status" addr @@ fun c ->
      let version, published, members =
        client_ok "cluster status" (Umrs_client.cluster_status c)
      in
      pf "topology v%d (%s)@." version
        (if published then "published" else "NOT published - degraded");
      List.iter
        (fun mi ->
          pf "  %-28s shard %2s  %-7s %s%s beat %.2fs ago  piece %016Lx@."
            (Wire.addr_to_string mi.Wire.mi_addr)
            (if mi.Wire.mi_shard < 0 then "-"
             else string_of_int mi.Wire.mi_shard)
            (match mi.Wire.mi_state with
            | Wire.Joining -> "joining"
            | Wire.Ready -> "ready"
            | Wire.Dead -> "dead")
            (if mi.Wire.mi_in_map then "in-map " else "out    ")
            (if mi.Wire.mi_primary then "primary " else "        ")
            mi.Wire.mi_beat_age mi.Wire.mi_checksum)
        (List.sort
           (fun a b -> compare a.Wire.mi_shard b.Wire.mi_shard)
           members)
    in
    Cmd.v
      (Cmd.info "status"
         ~doc:"Print a coordinator's membership table: every node's shard, \
               state, map presence and heartbeat age.")
      Term.(const run $ addr_arg)
  in
  Cmd.group
    (Cmd.info "cluster"
       ~doc:"Multi-node sharded serving: split a corpus across key-range \
             shards with replicas, or run a real multi-process membership \
             cluster (coordinator + joining nodes) with heartbeat failure \
             detection, online resharding and replica catch-up.")
    [ serve_cmd; query_cmd; coordinator_cmd; join_cmd; reshard_cmd;
      status_cmd ]

let () =
  let doc =
    "Laboratory for 'Local Memory Requirement of Universal Routing Schemes' \
     (Fraigniaud & Gavoille, 1996)."
  in
  let info = Cmd.info "routing_lab" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            evaluate_cmd; route_cmd; simulate_cmd; canon_cmd; enumerate_cmd;
            cgraph_cmd; lemma1_cmd; theorem1_cmd; reconstruct_cmd; figure1_cmd;
            table1_cmd; table2_cmd; orbit_cmd; burnside_cmd; estimate_cmd;
            dot_cmd; global_cmd; optimize_cmd; deadlock_cmd; save_cmd;
            check_cmd; compare_cmd; broadcast_cmd; corpus_cmd; serve_cmd;
            remote_cmd; cluster_cmd; chaos_cmd; bench_cmd;
          ]))
