(* compact-routing: tz-3 and landmark-3 on internet-like graphs, the
   regime of Krioukov et al. No canonicalization runs and no socket is
   opened.

   Inputs: a seeded Barabasi-Albert graph (n = 2000, m = 2) and a
   seeded Chung-Lu graph (n = 2000, exponent 2.5); the two degree
   tails give different cluster sizes and BFS frontiers. tz-3 prepare
   grows ~3x per doubling of n, so 2000 already exposes the
   superlinear term, and a round takes a few seconds, so a run repeats
   every unit several times.
   Primary stage: build both schemes on both graphs and bit-encode
   every router. Secondary stage: seeded Stretch_dist.sampled for both
   schemes on both graphs, at the default domain count. Then the steps
   Stretch_dist runs inside, one at a time: a BFS from each of a seeded
   set of sources (the light operation) and, untimed, a route from each
   source to a few seeded destinations. The heavy operation builds both
   schemes on one of 200 small seeded BA graphs (32-96 nodes): routing
   on many small graphs rather than a few large ones, so a change that
   speeds large n but slows small n shows. *)

open Umrs_graph
open Umrs_routing
open Common
module Clock = Umrs_bench.Clock

let n = 2000
let pairs = 2000

(* The route stage: this many seeded sources per scheme and graph, each
   with [fanout] destinations. *)
let sources = 250
let fanout = 4

(* The small graphs, and the range their orders cycle through. *)
let smalls = 200
let small_n = (32, 96)

(* Tails are read at p95: 200 small graphs put 10 beyond it. The BFS
   p99 (10 of 1000 runs) moved by a third between seeds, with the
   major-heap slices that land on the same few BFS runs in every round;
   every BFS of one graph does the same work. *)
let tail_pct = 95.0
let stretch_bound = 3.0

(* Generating the graphs takes about 30 ms; set-up is repeated this
   many times and its median reported. *)
let setup_reps = 15

type inputs = {
  large : (string * Graph.t) list;
  small : Graph.t array;
}

let generate ctx =
  let st = rng ctx 0xC0417 in
  Trace.span "graph.generate" (fun () ->
      let ba = Generators.barabasi_albert st ~n ~m:2 in
      let cl = Generators.chung_lu st ~n ~exponent:2.5 in
      (* the orders cycle through the range, the same for every seed: a
         build's cost grows fast with n, and drawing the orders moved
         the median build by a fifth between seeds *)
      let lo, hi = small_n in
      let small =
        Array.init smalls (fun i ->
            Generators.barabasi_albert st ~n:(lo + (i mod (hi - lo + 1))) ~m:2)
      in
      { large = [ ("ba", ba); ("cl", cl) ]; small })

type built = {
  graph_name : string;
  graph : Graph.t;
  scheme : string;
  b : Scheme.built;
  bits : Umrs_bitcode.Bitbuf.t array;
  build : Calib.timing;    (** build + bit-encode every router *)
}

let build_one graph_name g scheme =
  let (b, bits), build =
    Calib.time (fun () ->
        let b =
          if scheme = "tz-3" then Trace.span "routing.tz3.build" (fun () -> Tz_scheme.build g)
          else Trace.span "routing.landmark3.build" (fun () -> Landmark_scheme.build g)
        in
        let bits =
          Array.init (Graph.order g) (fun v ->
              Trace.span "bitcode.encode" (fun () -> b.Scheme.local_encoding v))
        in
        (b, bits))
  in
  { graph_name; graph = g; scheme; b; bits; build }

(* Units in a fixed order: tz-3 and landmark-3 on BA, then on Chung-Lu. *)
let build_all graphs =
  List.concat_map
    (fun (graph_name, g) ->
      Trace.span "compact.build" (fun () ->
          [ build_one graph_name g "tz-3"; build_one graph_name g "landmark-3" ]))
    graphs

let stretch_seed ctx = Hashtbl.hash (ctx.seed, 0x57E7)

let stretch_all ctx built =
  List.map
    (fun x ->
      let s, secs =
        Trace.span "compact.stretch" (fun () ->
            Calib.time (fun () ->
                Stretch_dist.sampled ~seed:(stretch_seed ctx) ~pairs x.b.Scheme.rf))
      in
      check (s.Stretch_dist.ds_pairs = pairs) "%s on %s: %d pairs measured" x.scheme
        x.graph_name s.Stretch_dist.ds_pairs;
      check (s.Stretch_dist.ds_max <= stretch_bound)
        "%s on %s: a sampled pair has stretch %g > 3" x.scheme x.graph_name
        s.Stretch_dist.ds_max;
      (x, s, secs))
    built

(* The route stage of one scheme on one graph: per source, the
   microseconds of its BFS (wall clock, in reference microseconds), and
   the hops routed. Every route is checked against the BFS distance.
   Routes are not timed one by one: at a few microseconds each, their
   timings moved by 15-25% between runs of the same seed, with nothing
   the calibration kernel sees. *)
type routed = { bfs_us : float array; hops : int }

let route_stage ctx x =
  let st = Random.State.make [| ctx.seed; 0x5EED; Hashtbl.hash (x.graph_name, x.scheme) |] in
  let srcs = Array.init sources (fun _ -> Random.State.int st n) in
  let dsts =
    Array.map (fun u -> Array.init fanout (fun _ -> (u + 1 + Random.State.int st (n - 1)) mod n)) srcs
  in
  let bfs_us = Array.make sources 0.0 in
  let hops = ref 0 in
  let (), t =
    Calib.time ~sample:false (fun () ->
        Array.iteri
          (fun i u ->
            let dist, s =
              Clock.time (fun () -> Trace.span "graph.bfs" (fun () -> Bfs.distances x.graph u))
            in
            bfs_us.(i) <- s;
            Array.iter
              (fun v ->
                let tr =
                  Trace.span "routing.route" (fun () -> Routing_function.route x.b.Scheme.rf u v)
                in
                check
                  (float_of_int tr.Routing_function.hops <= stretch_bound *. float_of_int dist.(v))
                  "%s on %s: route %d->%d takes %d hops, distance %d" x.scheme x.graph_name u v
                  tr.Routing_function.hops dist.(v);
                hops := !hops + tr.Routing_function.hops)
              dsts.(i))
          srcs)
  in
  ({ bfs_us = Array.map (fun s -> s *. 1e6 /. t.Calib.slowdown) bfs_us; hops = !hops }, t)

(* Both schemes built on each small graph: per graph, the busy
   microseconds of the two builds, in reference microseconds. Each
   built scheme routes [fanout] seeded pairs, untimed, checked against
   the BFS distance. *)
let small_stage ctx smalls =
  let st = Random.State.make [| ctx.seed; 0x5A11 |] in
  let build_us = Array.make (Array.length smalls) 0.0 in
  let (), t =
    Calib.time ~sample:false (fun () ->
        Trace.span "compact.small" @@ fun () ->
        Array.iteri
          (fun i g ->
            let (tz, lm), s =
              Calib.busy (fun () -> (Tz_scheme.build g, Landmark_scheme.build g))
            in
            build_us.(i) <- s;
            let order = Graph.order g in
            for _ = 1 to fanout do
              let u = Random.State.int st order in
              let v = (u + 1 + Random.State.int st (order - 1)) mod order in
              let d = (Bfs.distances g u).(v) in
              List.iter
                (fun (b : Scheme.built) ->
                  let hops = (Routing_function.route b.Scheme.rf u v).Routing_function.hops in
                  check (float_of_int hops <= stretch_bound *. float_of_int d)
                    "small graph %d: route %d->%d takes %d hops, distance %d" i u v hops d)
                [ tz; lm ]
            done)
          smalls)
  in
  (Array.map (fun s -> s *. 1e6 /. t.Calib.slowdown) build_us, t)

(* Every router's bits decode back to that router. *)
let decode_all built =
  List.iter
    (fun x ->
      Array.iteri
        (fun v bits ->
          let degree = Graph.degree x.graph v in
          let self, order =
            Trace.span "bitcode.decode" (fun () ->
                if x.scheme = "tz-3" then
                  let r = Tz_scheme.decode_vertex bits ~degree in
                  (r.Tz_scheme.dec_self, r.Tz_scheme.dec_order)
                else
                  let r = Landmark_scheme.decode_vertex bits ~degree in
                  (r.Landmark_scheme.dec_self, r.Landmark_scheme.dec_order))
          in
          check (self = v && order = n) "%s on %s: router %d decodes as %d (order %d)"
            x.scheme x.graph_name v self order)
        x.bits)
    built

let routers = 2 * 2 * n

type measured = {
  rounds : int;
  build_s : float array;       (** per unit, the median of its build + encode *)
  stretch_s : float array;     (** per unit, the median of its stretch sample *)
  bfs_us : float array;        (** per unit and source, the median of its BFS *)
  small_us : float array;      (** per small graph, the median of its two builds *)
  hops : int;                  (** hops routed in one round's route stage *)
  slowdown : float;            (** median over every timed unit (see Calib) *)
  built : built list;          (** the last round's schemes *)
  stretch : (built * Stretch_dist.summary) list;
  windows : (int64 * int64) list;
}

(* Rounds of the same seeded work, each on the next CPU, until [budget]
   seconds have passed; every unit is timed in reference seconds
   (Calib) and reported as the median of its rounds. *)
let measure ctx inputs ~budget =
  let t0 = Clock.now_ns () in
  let units = 4 in
  let builds = Array.make units [] and stretches = Array.make units [] in
  let routed = Array.make units [] and smalls = ref [] and slowdowns = ref [] in
  let note (t : Calib.timing) = slowdowns := t.Calib.slowdown :: !slowdowns in
  let rec go r windows =
    Cpu.pin (Cpu.of_round r);
    let built, w1 = timed_phase (fun () -> build_all inputs.large) in
    let stretch, w2 = timed_phase (fun () -> stretch_all ctx built) in
    let stage, w3 = timed_phase (fun () -> List.map (route_stage ctx) built) in
    let (small, small_t), w4 = timed_phase (fun () -> small_stage ctx inputs.small) in
    smalls := small :: !smalls;
    note small_t;
    List.iteri
      (fun u x ->
        builds.(u) <- x.build.Calib.ref_s :: builds.(u);
        note x.build)
      built;
    List.iteri
      (fun u (_, _, t) ->
        stretches.(u) <- t.Calib.ref_s :: stretches.(u);
        note t)
      stretch;
    List.iteri
      (fun u (x, t) ->
        routed.(u) <- x :: routed.(u);
        note t)
      stage;
    let windows = w1 :: w2 :: w3 :: w4 :: windows in
    (* the recursive call comes after [built] is dead, so one round's
       schemes are garbage before the next round builds its own *)
    if r + 1 < min_rounds || Clock.since_s t0 < budget then go (r + 1) windows
    else (r + 1, built, List.map (fun (x, s, _) -> (x, s)) stretch, windows)
  in
  let rounds, built, stretch, windows = go 0 [] in
  decode_all built;
  let median l = Stat.median (Array.of_list l) in
  (* each sample's median over the rounds *)
  let per_sample runs =
    Array.init (Array.length (List.hd runs)) (fun i -> median (List.map (fun a -> a.(i)) runs))
  in
  { rounds; build_s = Array.map median builds; stretch_s = Array.map median stretches;
    bfs_us =
      Array.concat
        (Array.to_list (Array.map (fun runs -> per_sample (List.map (fun (x : routed) -> x.bfs_us) runs)) routed));
    small_us = per_sample !smalls;
    hops = Array.fold_left (fun acc runs -> acc + (List.hd runs : routed).hops) 0 routed;
    slowdown = median !slowdowns; built; stretch; windows }

let sum = Array.fold_left ( +. ) 0.0

let e2e ctx =
  let inputs = ref None in
  let setup_s, setup_times = median_of_reps setup_reps (fun () -> inputs := Some (generate ctx)) in
  let m = measure ctx (Option.get !inputs) ~budget:ctx.seconds in
  let light = m.bfs_us and heavy = m.small_us in
  let verified = m.rounds * (routers + (4 * (pairs + (sources * fanout))) + (2 * smalls * fanout)) in
  print_slowdown m.slowdown;
  { attempted = verified; failed = 0;
    metrics =
      [ metric "setup_s" setup_s ~samples:(Array.length setup_times)
          ~what:"generate the seeded BA and Chung-Lu graphs and 200 small BA graphs";
        metric "peak_rss_mb" (Stat.peak_rss_mib ~children:[]) ~what:"benchmark process";
        metric "success_frac" 1.0 ~samples:verified
          ~what:"routers decoded back + sampled and routed pairs within stretch 3 / attempted";
        metric "primary_per_s" (float_of_int routers /. sum m.build_s) ~samples:m.rounds
          ~what:"routers built and bit-encoded/s (tz-3 + landmark-3, both graphs), median rounds";
        metric "secondary_per_s" (float_of_int (4 * pairs) /. sum m.stretch_s)
          ~samples:m.rounds
          ~what:"sampled pairs/s through Stretch_dist.sampled (both schemes, both graphs), median rounds";
        metric "light_p50_us" (Stat.median light) ~samples:(Array.length light)
          ~what:"BFS from one seeded source (both graphs), its median over rounds";
        metric "light_tail_us" (Stat.tail ~what:"BFS" ~pct:tail_pct light)
          ~samples:(Array.length light) ~what:"the same, p95";
        metric "heavy_p50_us" (Stat.median heavy) ~samples:(Array.length heavy)
          ~what:"build tz-3 + landmark-3 on one small BA graph (32-96 nodes), its median over rounds";
        metric "heavy_tail_us" (Stat.tail ~what:"small build" ~pct:tail_pct heavy)
          ~samples:(Array.length heavy) ~what:"the same, p95" ] }

let traced ctx =
  let budget = ctx.seconds /. 2.0 in
  let u = measure ctx (generate ctx) ~budget in
  Trace.enabled := true;
  let t = measure ctx (generate ctx) ~budget in
  let total m = sum m.build_s +. sum m.stretch_s in
  let overhead = (total t /. total u) -. 1.0 in
  let coverage = coverage (Trace.spans ()) t.windows in
  let built = t.built and stretch = t.stretch in
  let spans = Trace.spans () in
  let aggs = Trace.aggregate spans in
  let on g s = List.find (fun x -> x.graph_name = g && x.scheme = s) built in
  let tz = on "ba" "tz-3" and lm = on "ba" "landmark-3" in
  let tz_stretch = List.assq tz stretch in
  let lengths x = Array.map Umrs_bitcode.Bitbuf.length x.bits in
  let mem_local x = Array.fold_left max 0 (lengths x) in
  let decoded = Array.mapi (fun v bits -> Tz_scheme.decode_vertex bits ~degree:(Graph.degree tz.graph v)) tz.bits in
  let total_bits =
    List.fold_left (fun acc x -> acc + Array.fold_left ( + ) 0 (lengths x)) 0 built
  in
  (* build, encode and route-stage totals are over the traced run's
     rounds *)
  let per_round x = x /. float_of_int t.rounds in
  let bfs_calls = calls aggs "graph.bfs" / t.rounds in
  let encode_s = per_round (self_s aggs "bitcode.encode") in
  let arcs_per_bfs =
    (* every arc is scanned once by a BFS of a connected graph *)
    List.fold_left (fun acc x -> acc + (2 * Graph.size x.graph)) 0 built / List.length built
  in
  ( { attempted =
        (u.rounds + t.rounds) * (routers + (4 * (pairs + (sources * fanout))) + (2 * smalls * fanout));
      failed = 0;
      metrics =
        [ metric "graph.generate_s" (self_s aggs "graph.generate");
          metric "graph.bfs.calls" (float_of_int bfs_calls) ~what:"per round";
          metric "graph.bfs.self_s" (per_round (self_s aggs "graph.bfs")) ~what:"per round";
          metric "graph.bfs.arcs_per_s"
            (float_of_int (bfs_calls * arcs_per_bfs) /. per_round (self_s aggs "graph.bfs"));
          metric "routing.tz3.prepare_s" (per_round (self_s aggs "routing.tz3.build"))
            ~what:"per round (both graphs)";
          metric "routing.landmark3.build_s" (per_round (self_s aggs "routing.landmark3.build"))
            ~what:"per round (both graphs)";
          metric "routing.route.calls" (per_round (float_of_int (calls aggs "routing.route")))
            ~what:"per round";
          metric "routing.route.self_s" (per_round (self_s aggs "routing.route")) ~what:"per round";
          metric "routing.route.hops_per_s"
            (float_of_int t.hops /. per_round (self_s aggs "routing.route"));
          metric "routing.tz3.landmarks"
            (float_of_int (Array.length decoded.(0).Tz_scheme.dec_up_ports));
          metric "routing.tz3.cluster_entries"
            (float_of_int
               (Array.fold_left (fun acc r -> acc + Array.length r.Tz_scheme.dec_cluster) 0 decoded));
          metric "routing.tz3.mem_local_bits" (float_of_int (mem_local tz));
          metric "routing.tz3.mem_global_bits"
            (float_of_int (Array.fold_left ( + ) 0 (lengths tz)));
          metric "routing.tz3.stretch_mean" tz_stretch.Stretch_dist.ds_mean;
          metric "routing.tz3.stretch_p99" tz_stretch.Stretch_dist.ds_p99;
          metric "routing.tz3.stretch_max" tz_stretch.Stretch_dist.ds_max;
          metric "routing.landmark3.mem_local_bits" (float_of_int (mem_local lm));
          metric "bitcode.encode_s" encode_s ~what:"per round (every router, both schemes and graphs)";
          metric "bitcode.bits_per_s" (float_of_int total_bits /. encode_s);
          metric "bitcode.decode_s" (self_s aggs "bitcode.decode");
          metric "trace.coverage" coverage;
          metric "trace.overhead_frac" overhead ] },
    spans )
