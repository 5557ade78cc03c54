open Umrs_graph
open Umrs_routing
open Helpers

(* ---------- delivery and the stretch-3 guarantee ---------- *)

let test_delivers_petersen () =
  let b = Tz_scheme.build (Generators.petersen ()) in
  check_true "delivers" (Routing_function.delivers_all b.Scheme.rf);
  check_true "stretch <= 3"
    (Routing_function.stretch_at_most b.Scheme.rf ~num:3 ~den:1)

let test_extreme_rates () =
  let g = Generators.cycle 12 in
  (* rate 1.0: every vertex is a landmark, every route walks the
     destination's own BFS tree — exact shortest paths *)
  let ball = Tz_scheme.build ~rate:1.0 g in
  check_true "rate=1 delivers" (Routing_function.delivers_all ball.Scheme.rf);
  check_true "rate=1 stretch 1"
    (Routing_function.stretch_at_most ball.Scheme.rf ~num:1 ~den:1);
  (* a vanishing rate falls back to the single landmark {0}; the bound
     still holds (the l=1 Cowen argument) *)
  let b1 = Tz_scheme.build ~rate:1e-9 g in
  check_true "rate~0 delivers" (Routing_function.delivers_all b1.Scheme.rf);
  check_true "rate~0 stretch <= 3"
    (Routing_function.stretch_at_most b1.Scheme.rf ~num:3 ~den:1);
  check_true "NaN rate rejected"
    (try ignore (Tz_scheme.build ~rate:Float.nan g); false
     with Invalid_argument _ -> true)

(* Differential stretch check vs BFS ground truth on 50+ seeded graphs
   across three families (stretch_at_most compares every routed pair
   against the BFS distance matrix exactly, in rationals). *)
let stretch3_on name g =
  let b = Tz_scheme.build g in
  check_true
    (Printf.sprintf "%s stretch <= 3" name)
    (Routing_function.stretch_at_most b.Scheme.rf ~num:3 ~den:1)

let test_stretch_differential_random () =
  let st = rng () in
  for i = 1 to 20 do
    let n = 8 + Random.State.int st 40 in
    let m = n - 1 + Random.State.int st n in
    stretch3_on
      (Printf.sprintf "random#%d n=%d" i n)
      (Generators.random_connected st ~n ~m)
  done

let test_stretch_differential_ba () =
  let st = rng () in
  for i = 1 to 20 do
    let n = 10 + Random.State.int st 50 in
    let m = 1 + Random.State.int st 3 in
    stretch3_on
      (Printf.sprintf "ba#%d n=%d m=%d" i n m)
      (Generators.barabasi_albert st ~n ~m)
  done

let test_stretch_differential_grid () =
  for w = 2 to 6 do
    for h = 2 to 4 do
      stretch3_on (Printf.sprintf "grid %dx%d" w h) (Generators.grid w h)
    done
  done

(* ---------- bunches and clusters ---------- *)

let test_bunch_cluster_symmetry () =
  let st = rng () in
  let graphs =
    [
      ("grid", Generators.grid 5 5);
      ("random", Generators.random_connected st ~n:40 ~m:90);
      ("ba", Generators.barabasi_albert st ~n:48 ~m:2);
    ]
  in
  List.iter
    (fun (name, g) ->
      let d = Tz_scheme.prepare g in
      let n = Graph.order g in
      let in_arr a x = Array.exists (fun y -> y = x) a in
      for v = 0 to n - 1 do
        (* w ∈ B(v) ⇔ v ∈ C(w): v's bunch is exactly the set of
           vertices whose cluster table stores v *)
        let b = Landmark_core.bunch d v in
        Array.iter
          (fun w ->
            check_true
              (Printf.sprintf "%s: v=%d in cluster(%d)" name v w)
              (in_arr (Landmark_core.cluster_members d w) v))
          b;
        Array.iter
          (fun w ->
            if in_arr (Landmark_core.cluster_members d v) w then
              check_true
                (Printf.sprintf "%s: %d in bunch(%d)" name v w)
                (in_arr (Landmark_core.bunch d w) v))
          (Landmark_core.cluster_members d v)
      done)
    graphs

let test_bunch_excludes_landmarks () =
  let st = rng () in
  let g = Generators.random_connected st ~n:30 ~m:60 in
  let d = Tz_scheme.prepare g in
  let lm = Landmark_core.landmarks d in
  for v = 0 to Graph.order g - 1 do
    check_true "d(v,A) = 0 iff landmark"
      (Landmark_core.dist_to_landmarks d v = 0
      = Array.exists (fun l -> l = v) lm);
    Array.iter
      (fun w ->
        check_true "bunch members are non-landmarks"
          (not (Array.exists (fun l -> l = w) lm)))
      (Landmark_core.bunch d v)
  done

let test_home_is_nearest () =
  let st = rng () in
  let g = Generators.random_connected st ~n:36 ~m:70 in
  let d = Tz_scheme.prepare g in
  let lm = Landmark_core.landmarks d in
  let dist = Bfs.all_pairs g in
  for v = 0 to Graph.order g - 1 do
    let hv = lm.(Landmark_core.home d v) in
    check_int "home attains d(v,A)" (Landmark_core.dist_to_landmarks d v)
      dist.(v).(hv);
    Array.iter
      (fun l -> check_true "nearest" (dist.(v).(l) >= dist.(v).(hv)))
      lm
  done

(* ---------- bitcode round-trip ---------- *)

(* Rebuild a routing function from nothing but the decoded per-vertex
   bits (plus headers from the labels) and check it routes exactly like
   the original: the encoding really captures the whole local state. *)
let test_bitcode_roundtrip () =
  let st = rng () in
  let graphs =
    [
      ("grid", Generators.grid 4 5);
      ("ba", Generators.barabasi_albert st ~n:32 ~m:2);
      ("random", Generators.random_connected st ~n:24 ~m:50);
    ]
  in
  List.iter
    (fun (name, g) ->
      let n = Graph.order g in
      let b = Tz_scheme.build g in
      let dec =
        Array.init n (fun v ->
            Tz_scheme.decode_vertex (b.Scheme.local_encoding v)
              ~degree:(Graph.degree g v))
      in
      Array.iteri
        (fun v dv ->
          check_int (name ^ " self") v dv.Tz_scheme.dec_self;
          check_int (name ^ " order") n dv.Tz_scheme.dec_order)
        dec;
      let port x h =
        match h with
        | Routing_function.Packed [| v; li; dfs |] ->
          if x = v then None
          else begin
            let dv = dec.(x) in
            let rec bin lo hi =
              if lo > hi then None
              else begin
                let mid = (lo + hi) / 2 in
                let w, p = dv.Tz_scheme.dec_cluster.(mid) in
                if w = v then Some p
                else if w < v then bin (mid + 1) hi
                else bin lo (mid - 1)
              end
            in
            match bin 0 (Array.length dv.Tz_scheme.dec_cluster - 1) with
            | Some p -> Some p
            | None ->
              let row = dv.Tz_scheme.dec_children.(li) in
              let rec scan i =
                if i >= Array.length row then
                  Some dv.Tz_scheme.dec_up_ports.(li)
                else begin
                  let p, lo, hi = row.(i) in
                  if lo <= dfs && dfs <= hi then Some p else scan (i + 1)
                end
              in
              scan 0
          end
        | _ -> invalid_arg "decoded tz: bad header"
      in
      let rf' =
        {
          Routing_function.graph = g;
          init = b.Scheme.rf.Routing_function.init;
          port;
          next_header = (fun _ h -> h);
        }
      in
      check_true (name ^ " decoded delivers")
        (Routing_function.delivers_all rf');
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if u <> v then
            check_int
              (Printf.sprintf "%s decoded route %d->%d" name u v)
              (Routing_function.route_length b.Scheme.rf u v)
              (Routing_function.route_length rf' u v)
        done
      done)
    graphs

let test_build_deterministic () =
  let st = rng () in
  let g = Generators.barabasi_albert st ~n:40 ~m:2 in
  let b1 = Tz_scheme.build g and b2 = Tz_scheme.build g in
  for v = 0 to 39 do
    check_true "same bits"
      (Umrs_bitcode.Bitbuf.to_bool_array (b1.Scheme.local_encoding v)
      = Umrs_bitcode.Bitbuf.to_bool_array (b2.Scheme.local_encoding v))
  done;
  (* a different seed draws a different landmark set (overwhelmingly) *)
  let d1 = Tz_scheme.prepare g and d3 = Tz_scheme.prepare ~seed:999 g in
  check_true "seed matters"
    (Landmark_core.landmarks d1 <> Landmark_core.landmarks d3
    || Array.length (Landmark_core.landmarks d1) = 40)

(* ---------- memory vs the Cowen-style landmark scheme ---------- *)

let test_memory_below_landmark_on_ba () =
  let st = rng () in
  let g = Generators.barabasi_albert st ~n:256 ~m:2 in
  let tz = Tz_scheme.build g in
  let lm = Landmark_scheme.build g in
  check_true "global memory below landmark-3"
    (Scheme.mem_global tz < Scheme.mem_global lm);
  check_true "local memory below landmark-3"
    (Scheme.mem_local tz < Scheme.mem_local lm)

(* ---------- stretch distributions ---------- *)

let test_stretch_quantiles_ordered () =
  let st = rng () in
  let g = Generators.barabasi_albert st ~n:60 ~m:2 in
  let b = Tz_scheme.build g in
  let r = Stretch_dist.exact b.Scheme.rf in
  check_true "p50 >= 1" (r.Stretch_dist.ds_p50 >= 1.0);
  check_true "p50 <= p95" (r.Stretch_dist.ds_p50 <= r.Stretch_dist.ds_p95);
  check_true "p95 <= p99" (r.Stretch_dist.ds_p95 <= r.Stretch_dist.ds_p99);
  check_true "p99 <= max" (r.Stretch_dist.ds_p99 <= r.Stretch_dist.ds_max)

let test_stretch_dist_exact_vs_sampled () =
  let st = rng () in
  let g = Generators.barabasi_albert st ~n:80 ~m:2 in
  let b = Tz_scheme.build g in
  let ex = Stretch_dist.exact b.Scheme.rf in
  check_true "exact flag" ex.Stretch_dist.ds_exact;
  check_int "all ordered pairs" (80 * 79) ex.Stretch_dist.ds_pairs;
  check_true "max <= 3" (ex.Stretch_dist.ds_max <= 3.0);
  let sa = Stretch_dist.sampled ~seed:5 ~pairs:500 b.Scheme.rf in
  check_true "sampled flag" (not sa.Stretch_dist.ds_exact);
  check_int "pair count" 500 sa.Stretch_dist.ds_pairs;
  check_true "sampled max bounded by exact max"
    (sa.Stretch_dist.ds_max <= ex.Stretch_dist.ds_max +. 1e-9);
  (* domain count must not change the sampled result *)
  let s1 = Stretch_dist.sampled ~seed:5 ~pairs:500 ~domains:1 b.Scheme.rf in
  List.iter
    (fun domains ->
      check_true
        (Printf.sprintf "domain-independent at %d domains" domains)
        (Stretch_dist.sampled ~seed:5 ~pairs:500 ~domains b.Scheme.rf = s1))
    [ 2; 4 ];
  (* measure switches on the cutoff *)
  check_true "measure exact under cutoff"
    (Stretch_dist.measure ~cutoff:100 b.Scheme.rf).Stretch_dist.ds_exact;
  check_true "measure sampled over cutoff"
    (not
       (Stretch_dist.measure ~cutoff:10 ~pairs:200 b.Scheme.rf)
         .Stretch_dist.ds_exact)

(* Int64.bits_of_float of a sampled summary's mean, p50, p95, p99 and
   max, recorded when Stretch_dist.sampled ran one full BFS per sampled
   source. Every distance it measures is exact, so no way of measuring
   them may move a bit. *)
let check_pinned name expected (s : Stretch_dist.summary) =
  Alcotest.(check (list int64))
    name expected
    (List.map Int64.bits_of_float
       Stretch_dist.[ s.ds_mean; s.ds_p50; s.ds_p95; s.ds_p99; s.ds_max ])

(* perfbench's compact-routing inputs at seed 1: 2,000 pairs on 2,000
   vertices give most sources one destination. *)
let test_sampled_pinned_internet () =
  let st = Random.State.make [| 1; 0xC0417 |] in
  let ba = Generators.barabasi_albert st ~n:2000 ~m:2 in
  let cl = Generators.chung_lu st ~n:2000 ~exponent:2.5 in
  List.iter
    (fun (name, g, build, expected) ->
      check_pinned name expected
        (Stretch_dist.sampled ~seed:1 ~pairs:2000 (build g).Scheme.rf))
    [
      ( "tz-3 on BA", ba, (fun g -> Tz_scheme.build g),
        [ 0x3ff29cd2babd1457L; 0x3ff0000000000000L; 0x3ffaaaaaaaaaaaabL;
          0x4000000000000000L; 0x4005555555555555L ] );
      ( "landmark-3 on BA", ba, (fun g -> Landmark_scheme.build g),
        [ 0x3ff2d7e0f2cb975dL; 0x3ff0000000000000L; 0x3ffaaaaaaaaaaaabL;
          0x4000000000000000L; 0x4002aaaaaaaaaaabL ] );
      ( "tz-3 on Chung-Lu", cl, (fun g -> Tz_scheme.build g),
        [ 0x3ff1dc6edd75024eL; 0x3ff0000000000000L; 0x3ff8000000000000L;
          0x3ffc000000000000L; 0x4004000000000000L ] );
      ( "landmark-3 on Chung-Lu", cl, (fun g -> Landmark_scheme.build g),
        [ 0x3ff23cc42a77e6f3L; 0x3ff0000000000000L; 0x3ffaaaaaaaaaaaabL;
          0x3ffaaaaaaaaaaaabL; 0x4004000000000000L ] );
    ]

(* A 40x40 grid with the default 20,000 pairs: about 12 destinations
   per source on a large-diameter graph, so most sources take one full
   BFS and the rest pair searches, at every domain count. *)
let test_sampled_pinned_grid () =
  let rf = (Tz_scheme.build (Generators.grid 40 40)).Scheme.rf in
  List.iter
    (fun domains ->
      check_pinned
        (Printf.sprintf "tz-3 on grid 40x40, %d domains" domains)
        [ 0x3ff1531657fb966aL; 0x3ff0000000000000L; 0x3ff6666666666666L;
          0x3ffc71c71c71c71cL; 0x4008000000000000L ]
        (Stretch_dist.sampled ~domains rf))
    [ 1; 2; 4 ]

(* ---------- golden encodings ---------- *)

(* One digest per configuration, over twelve graphs: the description,
   every router's bit length and packed bits, and the path of 200
   seeded routes. The constants were recorded from the two schemes'
   separate implementations that preceded Landmark_core; a change to a
   single stored bit, port or route fails here. *)
let golden_graphs () =
  let ba n m = Generators.barabasi_albert (Random.State.make [| n; m |]) ~n ~m in
  [ fixture "as_ba64.graph"; fixture "as_ba48_dense.graph";
    fixture "as_powerlaw72.graph";
    ba 64 1; ba 64 2; ba 64 3; ba 256 1; ba 256 2; ba 256 3;
    Generators.chung_lu (Random.State.make [| 256; 0xC1 |]) ~n:256 ~exponent:2.5;
    Generators.petersen (); Generators.grid 5 7 ]

let golden_digest graphs build =
  let buf = Buffer.create 4096 in
  List.iter
    (fun g ->
      let n = Graph.order g in
      let b = build g in
      Buffer.add_string buf b.Scheme.description;
      for v = 0 to n - 1 do
        let bits = b.Scheme.local_encoding v in
        Buffer.add_string buf (string_of_int (Umrs_bitcode.Bitbuf.length bits));
        Buffer.add_bytes buf (Umrs_bitcode.Bitbuf.to_bytes bits)
      done;
      let st = Random.State.make [| n; 200 |] in
      for _ = 1 to 200 do
        let u = Random.State.int st n in
        let v = (u + 1 + Random.State.int st (n - 1)) mod n in
        List.iter
          (fun x -> Buffer.add_string buf (string_of_int x ^ ","))
          (Routing_function.route b.Scheme.rf u v).Routing_function.path
      done)
    graphs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let golden =
  [
    ("tz-3", (fun g -> Tz_scheme.build g), "8029be48f9935afab320c53ae05ede2a");
    ( "tz-3 seed 7",
      (fun g -> Tz_scheme.build ~seed:7 g),
      "e82b697335df6efe784e25b420fdb62f" );
    ( "tz-3 rate 1",
      (fun g -> Tz_scheme.build ~rate:1.0 g),
      "890b00326c4132c302cc5c14de3f1b06" );
    ( "tz-3 rate 1e-9",
      (fun g -> Tz_scheme.build ~rate:1e-9 g),
      "9e821f8d1101f283d1141f689a95a7f5" );
    ( "landmark-3",
      (fun g -> Landmark_scheme.build g),
      "94dcf1d2b5749249b202bfb677a2cd44" );
    ( "landmark-3 one landmark",
      (fun g -> Landmark_scheme.build ~landmarks:1 g),
      "9bafb12e9bd281b21a30623db1e098a9" );
    ( "landmark-3 high-degree",
      (fun g -> Landmark_scheme.build ~strategy:Landmark_scheme.High_degree g),
      "2d5491fcd9b60f354a1c77ac05950051" );
    ( "landmark-3 k-center",
      (fun g -> Landmark_scheme.build ~strategy:Landmark_scheme.K_center g),
      "c31b8ba937b25e564c53cbd23e626cab" );
  ]

let test_golden_encodings () =
  let graphs = golden_graphs () in
  List.iter
    (fun (name, build, expected) ->
      Alcotest.(check string) name expected (golden_digest graphs build))
    golden

(* ---------- the shared core over any landmark set ---------- *)

(* A graph and a non-empty landmark subset, drawn at a random rate so
   the sets run from a single vertex to all of them. *)
let graph_with_landmarks =
  let graphs = Gen.connected_graph ~max_n:31 () in
  let print (g, a) =
    graphs.Gen.print g ^ "\nlandmarks: "
    ^ String.concat " " (Array.to_list (Array.map string_of_int a))
  in
  Gen.make ~print (fun st ->
      let g = graphs.Gen.gen st in
      let n = Graph.order g in
      let rate = Random.State.float st 1.0 in
      match List.filter (fun _ -> Random.State.float st 1.0 < rate) (List.init n Fun.id) with
      | [] -> (g, [| Random.State.int st n |])
      | a -> (g, Array.of_list a))

(* The two schemes' rules for the port toward a landmark: landmark-3's
   smallest port one step closer, tz-3's port to the BFS-tree parent. *)
let up_rules = [ Landmark_core.Smallest_closer; Landmark_core.Parent ]

(* Under both rules: delivery, stretch <= 3 against BFS distances, and
   the transpose w ∈ B(v) ⇔ v ∈ C(w) between bunches and tables. *)
let core_holds (g, landmarks) =
  let vs = List.init (Graph.order g) Fun.id in
  let mem a x = Array.exists (( = ) x) a in
  List.for_all
    (fun up ->
      let d = Landmark_core.prepare g ~landmarks ~up in
      let rf = Landmark_core.routing_function d in
      Routing_function.delivers_all rf
      && Routing_function.stretch_at_most rf ~num:3 ~den:1
      && List.for_all
           (fun v ->
             let b = Landmark_core.bunch d v in
             List.for_all (fun w -> mem b w = mem (Landmark_core.cluster_members d w) v) vs)
           vs)
    up_rules

(* ---------- the flat layout against the per-vertex rows ---------- *)

(* The oracle for Landmark_core's flat arrays: the same tables built
   the direct way, as a heap row per vertex. Per landmark,
   Bfs.distances_with_parents, a recursive DFS numbering and per vertex
   a (port, lo, hi) array of its children; per vertex a (destination,
   port) array of its cluster table, from one full BFS per destination.
   Its encoder and router read those rows. *)
module Rows = struct
  type tree = {
    dfs : int array;
    children : (int * int * int) array array;
    up : int array;
  }

  type t = {
    graph : Graph.t;
    home : int array;
    cluster : (int * int) array array;
    trees : tree array;
  }

  (* Each up rule as a function of the landmark's BFS, written apart
     from Landmark_core's loops. *)
  let up_port (rule : Landmark_core.up) g ~dist ~parent v =
    match rule with
    | Landmark_core.Smallest_closer -> Bfs.port_toward g dist v
    | Landmark_core.Parent -> Option.get (Graph.port_to g ~src:v ~dst:parent.(v))

  let tree g ~up root =
    let n = Graph.order g in
    let dist, parent = Bfs.distances_with_parents g root in
    let dfs = Array.make n 0 and last = Array.make n 0 in
    let counter = ref 0 in
    let rec visit x =
      dfs.(x) <- !counter;
      incr counter;
      Array.iter (fun y -> if parent.(y) = x then visit y) (Graph.neighbors g x);
      last.(x) <- !counter - 1
    in
    visit root;
    let children =
      Array.init n (fun x ->
          let row = Graph.neighbors g x in
          Array.of_list
            (List.filter_map
               (fun k ->
                 let y = row.(k) in
                 if parent.(y) = x then Some (k + 1, dfs.(y), last.(y)) else None)
               (List.init (Array.length row) Fun.id)))
    in
    let up = Array.init n (fun v -> if v = root then 0 else up_port up g ~dist ~parent v) in
    (dist, { dfs; children; up })

  let prepare g ~landmarks ~up =
    let n = Graph.order g in
    let dist_to_a = Array.make n max_int and home = Array.make n 0 in
    let trees =
      Array.mapi
        (fun i root ->
          let dist, t = tree g ~up root in
          for v = 0 to n - 1 do
            if dist.(v) < dist_to_a.(v) then begin
              dist_to_a.(v) <- dist.(v);
              home.(v) <- i
            end
          done;
          t)
        landmarks
    in
    let lists = Array.make n [] in
    for v = n - 1 downto 0 do
      let dist = Bfs.distances g v in
      for x = 0 to n - 1 do
        if dist.(x) > 0 && dist.(x) < dist_to_a.(v) then
          lists.(x) <- (v, Bfs.port_toward g dist x) :: lists.(x)
      done
    done;
    { graph = g; home; cluster = Array.map Array.of_list lists; trees }

  let encode_vertex d v =
    let open Umrs_bitcode in
    let n = Graph.order d.graph in
    let pwidth = Codes.ceil_log2 (max 2 (Graph.degree d.graph v)) in
    let vwidth = Codes.ceil_log2 (max 2 n) in
    let buf = Bitbuf.create () in
    Codes.write_delta buf n;
    Codes.write_fixed buf v ~width:vwidth;
    Codes.write_gamma buf (Array.length d.trees + 1);
    Array.iter (fun t -> Codes.write_fixed buf t.up.(v) ~width:(pwidth + 1)) d.trees;
    Codes.write_gamma buf (Array.length d.cluster.(v) + 1);
    Array.iter
      (fun (w, p) ->
        Codes.write_fixed buf w ~width:vwidth;
        Codes.write_fixed buf (p - 1) ~width:pwidth)
      d.cluster.(v);
    Array.iter
      (fun t ->
        Codes.write_gamma buf (Array.length t.children.(v) + 1);
        Array.iter
          (fun (p, lo, hi) ->
            Codes.write_fixed buf (p - 1) ~width:pwidth;
            Codes.write_fixed buf lo ~width:vwidth;
            Codes.write_fixed buf hi ~width:vwidth)
          t.children.(v))
      d.trees;
    buf

  let routing_function d =
    let init _u v =
      let li = d.home.(v) in
      Routing_function.Packed [| v; li; d.trees.(li).dfs.(v) |]
    in
    let port x h =
      match h with
      | Routing_function.Packed [| v; li; dfs |] ->
        if x = v then None
        else begin
          match List.assoc_opt v (Array.to_list d.cluster.(x)) with
          | Some p -> Some p
          | None -> (
            let t = d.trees.(li) in
            match
              List.find_opt (fun (_, lo, hi) -> lo <= dfs && dfs <= hi)
                (Array.to_list t.children.(x))
            with
            | Some (p, _, _) -> Some p
            | None -> Some t.up.(x))
        end
      | _ -> invalid_arg "Rows: malformed header"
    in
    { Routing_function.graph = d.graph; init; port; next_header = (fun _ h -> h) }
end

(* Deep and wide shapes beside random graphs: paths, stars, grids,
   trees and BA graphs up to 48 vertices, half of them with every port
   order shuffled, each with a random landmark set. *)
let layout_case =
  let graphs = Gen.connected_graph ~max_n:31 () in
  let print (g, a) =
    Gen.print_graph g ^ "\nlandmarks: "
    ^ String.concat " " (Array.to_list (Array.map string_of_int a))
  in
  Gen.make ~print (fun st ->
      let n = 2 + Random.State.int st 47 in
      let g =
        match Random.State.int st 6 with
        | 0 -> graphs.Gen.gen st
        | 1 -> Generators.path n
        | 2 -> Generators.star n
        | 3 -> Generators.grid (1 + Random.State.int st 7) (2 + Random.State.int st 6)
        | 4 -> Generators.random_tree st n
        | _ -> Generators.barabasi_albert st ~n:(max n 4) ~m:(1 + Random.State.int st 3)
      in
      let g =
        if Random.State.bool st then g
        else
          Graph.relabel_ports g
            (Array.init (Graph.order g) (fun v -> Perm.random st (Graph.degree g v)))
      in
      let n = Graph.order g in
      let rate = Random.State.float st 1.0 in
      match List.filter (fun _ -> Random.State.float st 1.0 < rate) (List.init n Fun.id) with
      | [] -> (g, [| Random.State.int st n |])
      | a -> (g, Array.of_list a))

(* Under both up rules, the flat layout and the rows give the same bits
   at every router, the same cluster tables and the same path for every
   ordered pair. *)
let layout_matches_rows (g, landmarks) =
  let n = Graph.order g in
  let image bits = (Umrs_bitcode.Bitbuf.length bits, Umrs_bitcode.Bitbuf.to_bytes bits) in
  List.for_all
    (fun up ->
      let d = Landmark_core.prepare g ~landmarks ~up and o = Rows.prepare g ~landmarks ~up in
      let rf = Landmark_core.routing_function d and rf' = Rows.routing_function o in
      List.for_all
        (fun v ->
          image (Landmark_core.encode_vertex d v) = image (Rows.encode_vertex o v)
          && Landmark_core.cluster_members d v = Array.map fst o.Rows.cluster.(v)
          && List.for_all
               (fun u ->
                 u = v
                 || (Routing_function.route rf u v).Routing_function.path
                    = (Routing_function.route rf' u v).Routing_function.path)
               (List.init n Fun.id))
        (List.init n Fun.id))
    up_rules

(* The words encode_vertex hands to Bitbuf.add_bits, under both up
   rules: each of 1 to 55 bits, the most one word access writes, and
   in order the router's bits. *)
let words_make_the_bits (g, landmarks) =
  let image bits = (Umrs_bitcode.Bitbuf.length bits, Umrs_bitcode.Bitbuf.to_bytes bits) in
  List.for_all
    (fun up ->
      let d = Landmark_core.prepare g ~landmarks ~up in
      List.for_all
        (fun v ->
          let joined = Umrs_bitcode.Bitbuf.create () and ok = ref true in
          Landmark_core.encode_words d v (fun x ~width ->
              ok := !ok && 1 <= width && width <= 55;
              Umrs_bitcode.Bitbuf.add_bits joined x ~width);
          !ok && image joined = image (Landmark_core.encode_vertex d v))
        (List.init (Graph.order g) Fun.id))
    up_rules

(* ---------- what prepare refuses ---------- *)

(* [f ()] raises Invalid_argument with a message that contains [says]. *)
let refuses name ~says f =
  match f () with
  | _ -> Alcotest.failf "%s: accepted" name
  | exception Invalid_argument msg ->
    let k = String.length says in
    let rec has i = i + k <= String.length msg && (String.sub msg i k = says || has (i + 1)) in
    if not (has 0) then Alcotest.failf "%s: %S does not say %S" name msg says

let test_refuses_landmark_sets () =
  let g = Generators.grid 3 3 in
  List.iter
    (fun up ->
      List.iter
        (fun (name, landmarks, says) ->
          refuses name ~says (fun () -> Landmark_core.prepare g ~landmarks ~up))
        [
          ("empty", [||], "no landmarks");
          ("decreasing", [| 5; 2 |], "not strictly increasing");
          ("repeated", [| 2; 2 |], "not strictly increasing");
          ("negative", [| -1; 4 |], "outside the graph");
          ("past the order", [| 3; 9 |], "outside the graph");
        ])
    up_rules

(* The first landmark's search reaches fewer than n vertices: two
   components, or a vertex with no edge. *)
let test_refuses_disconnected () =
  let two = Graph.disjoint_union (Generators.path 4) (Generators.cycle 5) in
  let loner = Graph.of_edges ~n:4 [ (0, 1); (1, 2) ] in
  List.iter
    (fun up ->
      refuses "two components" ~says:"not connected" (fun () ->
          Landmark_core.prepare two ~landmarks:[| 0; 6 |] ~up);
      refuses "an isolated vertex" ~says:"not connected" (fun () ->
          Landmark_core.prepare loner ~landmarks:[| 3 |] ~up))
    up_rules;
  (* the schemes run no search of their own for it *)
  refuses "tz-3" ~says:"not connected" (fun () -> Tz_scheme.prepare two);
  List.iter
    (fun strategy ->
      refuses "landmark-3" ~says:"not connected" (fun () -> Landmark_scheme.prepare ~strategy two))
    Landmark_scheme.[ Random_landmarks; High_degree; K_center ]

(* 2^21 vertices do not fit a 21-bit field. The graph has no edge, so a
   search would refuse it as disconnected: the order is refused first. *)
let test_refuses_order () =
  refuses "2^21 vertices" ~says:"2097152 vertices" (fun () ->
      Landmark_core.prepare (Graph.empty (1 lsl 21)) ~landmarks:[| 0 |]
        ~up:Landmark_core.Parent)

(* ---------- the memory layout ---------- *)

(* Obj.reachable_words of a prepared core beside its graph, counted
   block by block: an int array of k > 0 entries is k words plus a
   header, a record a header plus its fields. Each tree is its two
   packed arrays, 2n - 1 payload words (a word per vertex, a word per
   child), beside the vertex arrays and the cluster CSR. *)
let layout_words ~n ~landmarks ~entries =
  let ints k = k + 1 and record k = k + 1 in
  let tree = record 2 + ints n + ints (n - 1) in
  record 6 + ints landmarks + (2 * ints n)
  + (record 3 + ints (n + 1) + (2 * ints entries))
  + ints landmarks + (landmarks * tree)

let test_tree_layout () =
  let seeded k = Random.State.make [| k; 0x1A70 |] in
  List.iter
    (fun (name, g) ->
      let n = Graph.order g in
      (* tz-3's sample, under both up rules *)
      let landmarks = Landmark_core.landmarks (Tz_scheme.prepare g) in
      List.iter
        (fun up ->
          let d = Landmark_core.prepare g ~landmarks ~up in
          let entries = ref 0 in
          for x = 0 to n - 1 do
            entries := !entries + Array.length (Landmark_core.cluster_members d x)
          done;
          (* an empty array is one shared atom: keep the count exact *)
          check_true (name ^ ": cluster entries") (!entries > 0);
          check_int
            (Printf.sprintf "%s: %d trees of 2n - 1 = %d words" name (Array.length landmarks)
               ((2 * n) - 1))
            (layout_words ~n ~landmarks:(Array.length landmarks) ~entries:!entries)
            (Obj.reachable_words (Obj.repr d) - Obj.reachable_words (Obj.repr g)))
        up_rules)
    [
      ("BA 300", Generators.barabasi_albert (seeded 1) ~n:300 ~m:2);
      ("BA 120 m=3", Generators.barabasi_albert (seeded 2) ~n:120 ~m:3);
      ("Chung-Lu 300", Generators.chung_lu (seeded 3) ~n:300 ~exponent:2.5);
      ("star 64", Generators.star 64);
      ("path 50", Generators.path 50);
    ]

let suite =
  [
    case "delivers on petersen" test_delivers_petersen;
    case "extreme sampling rates" test_extreme_rates;
    case "stretch <= 3 vs BFS: 20 random graphs" test_stretch_differential_random;
    case "stretch <= 3 vs BFS: 20 BA graphs" test_stretch_differential_ba;
    case "stretch <= 3 vs BFS: 15 grids" test_stretch_differential_grid;
    case "bunch/cluster transpose symmetry" test_bunch_cluster_symmetry;
    case "bunches exclude landmarks" test_bunch_excludes_landmarks;
    case "home is the nearest landmark" test_home_is_nearest;
    case "bitcode round-trip drives routing" test_bitcode_roundtrip;
    case "build is deterministic" test_build_deterministic;
    case "memory below landmark-3 on BA" test_memory_below_landmark_on_ba;
    case "stretch report quantiles ordered" test_stretch_quantiles_ordered;
    case "stretch distributions exact vs sampled" test_stretch_dist_exact_vs_sampled;
    case "golden encodings and routes" test_golden_encodings;
    Gen.prop ~count:2000 "core: stretch 3 and transposed tables, any landmark set"
      graph_with_landmarks core_holds;
    prop ~count:30 "delivers within stretch 3 on random graphs"
      arbitrary_connected_graph (fun g ->
        Routing_function.stretch_at_most (Tz_scheme.build g).Scheme.rf ~num:3
          ~den:1);
    case "sampled summaries pinned: BA, Chung-Lu" test_sampled_pinned_internet;
    case "sampled summaries pinned: grid 40x40" test_sampled_pinned_grid;
    Gen.prop ~count:300 "flat layout = per-vertex rows: bits, tables, routes"
      layout_case layout_matches_rows;
    Gen.prop ~count:300 "encoder words: at most 55 bits each, the router's bits"
      layout_case words_make_the_bits;
    case "prepare refuses bad landmark sets" test_refuses_landmark_sets;
    case "prepare refuses a disconnected graph" test_refuses_disconnected;
    case "prepare refuses 2^21 vertices" test_refuses_order;
    case "layout: each tree is 2n - 1 words" test_tree_layout;
  ]
