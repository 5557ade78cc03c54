open Umrs_graph
open Umrs_routing
open Helpers

(* ---------- Routing_function ---------- *)

let tables g = Table_scheme.build g

let test_route_on_path () =
  let g = Generators.path 5 in
  let rf = (tables g).Scheme.rf in
  let t = Routing_function.route rf 0 4 in
  check_true "path" (t.Routing_function.path = [ 0; 1; 2; 3; 4 ]);
  check_int "hops" 4 t.Routing_function.hops;
  check_int "headers count" 5 (List.length t.Routing_function.headers)

let test_route_src_eq_dst_rejected () =
  let g = Generators.path 3 in
  let rf = (tables g).Scheme.rf in
  check_true "src=dst raises"
    (try ignore (Routing_function.route rf 1 1); false
     with Invalid_argument _ -> true)

let test_routing_loop_detected () =
  (* adversarial function that bounces between 0 and 1 forever *)
  let g = Generators.path 3 in
  let rf =
    {
      Routing_function.graph = g;
      init = (fun _ v -> Routing_function.Dest v);
      port = (fun u _ -> Some (if u = 0 then 1 else 1));
      next_header = (fun _ h -> h);
    }
  in
  check_true "loop raises"
    (try ignore (Routing_function.route rf 0 2); false
     with Routing_function.Routing_loop (0, 2) -> true)

let test_wrong_delivery_detected () =
  let g = Generators.path 3 in
  let rf =
    {
      Routing_function.graph = g;
      init = (fun _ v -> Routing_function.Dest v);
      port = (fun _ _ -> None);
      next_header = (fun _ h -> h);
    }
  in
  check_true "misdelivery raises"
    (try ignore (Routing_function.route rf 0 2); false
     with Invalid_argument _ -> true)

let test_tables_stretch_one () =
  let g = Generators.cycle 7 in
  let rf = (tables g).Scheme.rf in
  let r = Stretch_dist.exact rf in
  Alcotest.(check (float 1e-9)) "max stretch 1" 1.0 r.Stretch_dist.ds_max;
  Alcotest.(check (float 1e-9)) "mean stretch 1" 1.0 r.Stretch_dist.ds_mean

let test_stretch_detects_detour () =
  (* On C5, always route clockwise: worst pair has dR=4 vs dG=1 *)
  let g = Generators.cycle 5 in
  let next u _ =
    match Graph.port_to g ~src:u ~dst:((u + 1) mod 5) with
    | Some k -> k
    | None -> assert false
  in
  let rf = Routing_function.of_next_hop g next in
  let r = Stretch_dist.exact rf in
  Alcotest.(check (float 1e-9)) "max 4" 4.0 r.Stretch_dist.ds_max;
  check_true "stretch_at_most 4" (Routing_function.stretch_at_most rf ~num:4 ~den:1);
  check_true "not at most 3.9"
    (not (Routing_function.stretch_at_most rf ~num:39 ~den:10))

let test_delivers_all () =
  let g = Generators.petersen () in
  check_true "tables deliver" (Routing_function.delivers_all (tables g).Scheme.rf)

(* ---------- Table scheme ---------- *)

let test_table_memory_formula () =
  let g = Generators.complete 8 in
  let b = tables g in
  (* each of 8 routers: 7 entries x ceil(log2 7)=3 bits *)
  check_int "local" 21 (Scheme.mem_local b);
  check_int "global" (8 * 21) (Scheme.mem_global b)

let test_table_decode_roundtrip () =
  let g = Generators.petersen () in
  let m = Table_scheme.next_hop_matrix g in
  let b = Table_scheme.build g in
  for v = 0 to 9 do
    let buf = b.Scheme.local_encoding v in
    let decoded =
      Table_scheme.decode_table buf ~order:10 ~degree:(Graph.degree g v) ~self:v
    in
    for dst = 0 to 9 do
      if dst <> v then check_int "entry" m.(v).(dst) decoded.(dst)
    done
  done

let test_next_hop_goes_closer () =
  let g = Generators.petersen () in
  let dist = Bfs.all_pairs g in
  let m = Table_scheme.next_hop_matrix g in
  for u = 0 to 9 do
    for v = 0 to 9 do
      if u <> v then begin
        let w = Graph.neighbor g u ~port:m.(u).(v) in
        check_int "one closer" (dist.(u).(v) - 1) dist.(w).(v)
      end
    done
  done

let test_exact_mean_rounds_as_true_mean () =
  (* landmark-3 on bench/main's T1 random_sparse graph: the 240 ratios
     sum to exactly 273, so the true mean is 273/240 = 1.1375, whose
     nearest float prints 1.137. Summed in sorted order, the rounded
     ratios land two ulps above it and print 1.138. *)
  let g =
    List.assoc "random_sparse"
      (Generators.corpus (Random.State.make [| 0xBE5C; 16 |]) ~size:16)
  in
  let s = Stretch_dist.exact (Landmark_scheme.build g).Scheme.rf in
  check_int "all ordered pairs" 240 s.Stretch_dist.ds_pairs;
  check_true "mean is the float nearest 273/240"
    (s.Stretch_dist.ds_mean = 273. /. 240.);
  Alcotest.(check string) "printed" "1.137"
    (Printf.sprintf "%.3f" s.Stretch_dist.ds_mean)

(* ---------- qcheck over random graphs ---------- *)


let test_registry () =
  let names = Registry.names () in
  check_int "ten universal schemes" 10 (List.length names);
  check_true "unique names"
    (List.length (List.sort_uniq compare names) = List.length names);
  check_true "find hits" (Registry.find "routing-tables" <> None);
  check_true "find misses" (Registry.find "no-such-scheme" = None)

let test_registry_compare_and_csv () =
  let g = Generators.petersen () in
  let evals =
    Registry.compare_on ~graph_name:"petersen" g (Registry.universal ())
  in
  check_int "one eval per scheme" 10 (List.length evals);
  let csv = Registry.to_csv evals in
  let lines = String.split_on_char '\n' csv |> List.filter (( <> ) "") in
  check_int "header + rows" 11 (List.length lines);
  check_true "header" (List.hd lines = Registry.csv_header);
  (* header/row arity stays in sync: every row must carry exactly one
     field per header column, or a consumer silently misaligns *)
  let arity s = List.length (String.split_on_char ',' s) in
  let header_arity = arity Registry.csv_header in
  List.iteri
    (fun i row ->
      check_int (Printf.sprintf "row %d arity = header arity" i) header_arity
        (arity row))
    (List.tl lines);
  (* all universal schemes respect their declared stretch bounds *)
  List.iter2
    (fun scheme e ->
      match scheme.Scheme.stretch_bound with
      | Some b ->
        check_true
          (scheme.Scheme.name ^ " within declared bound")
          (e.Scheme.stretch.Stretch_dist.ds_max <= b +. 1e-9)
      | None -> ())
    (Registry.universal ()) evals

(* ---------- the on-demand table ---------- *)

(* The rule written out on its own: from the full distance matrix, the
   smallest port at [u] whose head is one step closer to [v]. *)
let oracle_ports g =
  let n = Graph.order g and dist = Bfs.all_pairs g in
  Array.init n (fun u ->
      Array.init n (fun v ->
          if u = v then 0
          else begin
            let k = ref 1 in
            while dist.(Graph.neighbor g u ~port:!k).(v) <> dist.(u).(v) - 1 do
              incr k
            done;
            !k
          end))

let port_of (b : Scheme.built) u v =
  match b.Scheme.rf.Routing_function.port u (Routing_function.Dest v) with
  | Some k -> k
  | None -> 0

(* Random connected graphs, graphs of constraints of random normalized
   (4,8,8) matrices, and the same padded with a path; each with a seed
   for the order its ports are asked in. *)
let table_case =
  let connected = Gen.connected_graph ~max_n:30 () in
  Gen.make
    ~print:(fun (g, seed) -> Printf.sprintf "%s\n  asked in shuffle %d" (Gen.print_graph g) seed)
    (fun st ->
      let g =
        match Random.State.int st 3 with
        | 0 -> connected.Gen.gen st
        | kind ->
          let raw = Umrs_core.Orbit.random_raw st ~p:4 ~q:8 ~d:8 in
          let m =
            Umrs_core.Matrix.create
              (Array.init 4 (fun i ->
                   Umrs_core.Canonical.normalize_row
                     (Array.init 8 (Umrs_core.Matrix.get raw i))))
          in
          let t = Umrs_core.Cgraph.of_matrix m in
          let t =
            if kind = 1 then t
            else
              Umrs_core.Cgraph.pad_to_order t
                ~n:(Graph.order t.Umrs_core.Cgraph.graph + 1 + Random.State.int st 12)
          in
          t.Umrs_core.Cgraph.graph
      in
      (g, Random.State.bits st))

(* A fresh build asked every port in a random order gives the oracle's;
   encodings read before any route (a second fresh build) and after
   every route have the same bits, and decode to the oracle's rows. *)
let on_demand_matches_oracle (g, seed) =
  let n = Graph.order g and expected = oracle_ports g in
  let st = Random.State.make [| seed |] in
  let pairs = Array.init (n * n) (fun i -> (i / n, i mod n)) in
  for i = Array.length pairs - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = pairs.(i) in
    pairs.(i) <- pairs.(j);
    pairs.(j) <- x
  done;
  let before = Table_scheme.build g and routed = Table_scheme.build g in
  let bits b v = Umrs_bitcode.Bitbuf.to_bool_array (b.Scheme.local_encoding v) in
  let first = Array.init n (fun v -> bits before v) in
  Array.for_all (fun (u, v) -> u = v || port_of routed u v = expected.(u).(v)) pairs
  && List.for_all
       (fun v ->
         bits routed v = first.(v)
         && bits before v = first.(v)
         && Table_scheme.decode_table (routed.Scheme.local_encoding v) ~order:n
              ~degree:(Graph.degree g v) ~self:v
            = expected.(v))
       (List.init n Fun.id)

let test_shared_build_two_domains () =
  let g = Generators.barabasi_albert (Random.State.make [| 0x7AB; 1 |]) ~n:300 ~m:2 in
  let n = Graph.order g in
  let b = Table_scheme.build g in
  (* both domains walk the destinations in the same order, so they fill
     the same columns at about the same time; each routes every pair of
     its sources, then reads the ports *)
  let rows =
    Parallel.map_range ~domains:2 n (fun u ->
        let hops =
          Array.init n (fun v -> if u = v then 0 else Routing_function.route_length b.Scheme.rf u v)
        in
        (hops, Array.init n (fun v -> if u = v then 0 else port_of b u v)))
  in
  let dist = Bfs.all_pairs g in
  check_true "every route is a shortest path" (Array.map fst rows = dist);
  check_true "two domains read the sequential ports"
    (Array.map snd rows = Table_scheme.next_hop_matrix g)

let test_sampled_domains_agree () =
  let g = Generators.barabasi_albert (Random.State.make [| 0x7AB; 2 |]) ~n:500 ~m:2 in
  let sampled domains =
    Stretch_dist.sampled ~pairs:4000 ~domains (Table_scheme.build g).Scheme.rf
  in
  check_true "sampled ~domains:2 = ~domains:1" (sampled 2 = sampled 1)

let test_disconnected_raises_at_build () =
  let g = Graph.disjoint_union (Generators.cycle 3) (Generators.path 2) in
  let raises f =
    match f () with
    | _ -> false
    | exception Invalid_argument msg -> msg = "Table_scheme: disconnected graph"
  in
  check_true "build" (raises (fun () -> ignore (Table_scheme.build g)));
  check_true "next_hop_matrix" (raises (fun () -> ignore (Table_scheme.next_hop_matrix g)))

let suite =
  [
    case "route on a path" test_route_on_path;
    case "src = dst rejected" test_route_src_eq_dst_rejected;
    case "routing loop detected" test_routing_loop_detected;
    case "wrong delivery detected" test_wrong_delivery_detected;
    case "tables give stretch 1" test_tables_stretch_one;
    case "stretch detects detours" test_stretch_detects_detour;
    case "delivers_all on petersen" test_delivers_all;
    case "table memory formula" test_table_memory_formula;
    case "table encode/decode roundtrip" test_table_decode_roundtrip;
    case "next hops decrease distance" test_next_hop_goes_closer;
    case "scheme registry" test_registry;
    case "registry compare + csv" test_registry_compare_and_csv;
    prop ~count:40 "tables: stretch 1 on random graphs"
      arbitrary_connected_graph (fun g ->
        Routing_function.stretch_at_most (tables g).Scheme.rf ~num:1 ~den:1);
    prop ~count:40 "tables: decode roundtrip on random graphs"
      arbitrary_connected_graph (fun g ->
        let n = Graph.order g in
        let m = Table_scheme.next_hop_matrix g in
        let b = Table_scheme.build g in
        let ok = ref true in
        for v = 0 to n - 1 do
          let decoded =
            Table_scheme.decode_table (b.Scheme.local_encoding v) ~order:n
              ~degree:(Graph.degree g v) ~self:v
          in
          for dst = 0 to n - 1 do
            if dst <> v && decoded.(dst) <> m.(v).(dst) then ok := false
          done
        done;
        !ok);
    prop ~count:40 "evaluate reports consistent sizes"
      arbitrary_connected_graph (fun g ->
        let e = Scheme.evaluate Table_scheme.scheme ~graph_name:"rnd" g in
        e.Scheme.order = Graph.order g
        && e.Scheme.edges = Graph.size g
        && e.Scheme.mem_local_bits <= e.Scheme.mem_global_bits);
    case "exact mean rounds as the true mean" test_exact_mean_rounds_as_true_mean;
    Gen.prop ~count:150 "on-demand table = oracle, ports in random order" table_case
      on_demand_matches_oracle;
    case "two domains share one fresh build" test_shared_build_two_domains;
    case "sampled: 2 domains = 1 on routing-tables" test_sampled_domains_agree;
    case "disconnected graph raises at build" test_disconnected_raises_at_build;
  ]
