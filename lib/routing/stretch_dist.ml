open Umrs_graph
module Q = Umrs_bench.Quantile

type summary = {
  ds_pairs : int;
  ds_exact : bool;
  ds_mean : float;
  ds_p50 : float;
  ds_p95 : float;
  ds_p99 : float;
  ds_max : float;
}

let default_cutoff = 1200
let default_sample_pairs = 20_000

(* Neumaier's compensated sum: each addition's rounding error is carried
   and added back once, so the result is within about one rounding of
   the exact sum of the floats. *)
let compensated_sum a =
  let sum = ref 0. and err = ref 0. in
  Array.iter
    (fun x ->
      let s = !sum +. x in
      (err :=
         !err
         +. if Float.abs !sum >= Float.abs x then !sum -. s +. x
            else x -. s +. !sum);
      sum := s)
    a;
  !sum +. !err

let of_ratios ~exact ratios =
  let n = Array.length ratios in
  if n = 0 then
    (* Fewer than two vertices: no pair to route, every statistic 1. *)
    { ds_pairs = 0; ds_exact = exact; ds_mean = 1.0; ds_p50 = 1.0;
      ds_p95 = 1.0; ds_p99 = 1.0; ds_max = 1.0 }
  else
    let q = Q.of_array ratios in
    {
      ds_pairs = n;
      ds_exact = exact;
      (* An exact mean must print as the true mean does. Summed in
         sorted order, 240 ratios whose true mean is 273/240 = 1.1375
         land two ulps above it and print 1.138 at %.3f; the nearest
         float to 1.1375 prints 1.137. A sampled mean keeps the sorted
         sum: its sampling error dwarfs the rounding, and test_tz pins
         its bits. *)
      ds_mean =
        (if exact then compensated_sum ratios /. float_of_int n else Q.mean q);
      ds_p50 = Q.p50 q;
      ds_p95 = Q.p95 q;
      ds_p99 = Q.p99 q;
      ds_max = Q.max q;
    }

let of_pairs n ratio =
  let ratios = Array.make (n * (n - 1)) 1.0 in
  let k = ref 0 in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then begin
        ratios.(!k) <- ratio u v;
        incr k
      end
    done
  done;
  of_ratios ~exact:true ratios

let exact ?dist rf =
  let g = rf.Routing_function.graph in
  let d = match dist with Some d -> d | None -> Parallel.all_pairs g in
  of_pairs (Graph.order g) (fun u v ->
      let dg = d.(u).(v) in
      if dg = Bfs.infinity then
        invalid_arg "Stretch_dist.exact: disconnected graph";
      float_of_int (Routing_function.route_length rf u v) /. float_of_int dg)

(* One domain's distance searches: a workspace for full BFSs, one for
   pair searches, and the pair searches run so far with the arcs they
   scanned. *)
type searcher = {
  ws : Bfs.workspace;
  pw : Bfs.pair_workspace;
  mutable searches : int;
  mutable scanned : int;
}

let searcher () =
  { ws = Bfs.workspace (); pw = Bfs.pair_workspace (); searches = 0; scanned = 0 }

let sampled ?(seed = 0xD157) ?(pairs = default_sample_pairs) ?domains rf =
  let g = rf.Routing_function.graph in
  let n = Graph.order g in
  if n < 2 then invalid_arg "Stretch_dist.sampled: need n >= 2";
  let pairs = max 1 pairs in
  (* Draw the pair sample up front (seeded, sequential), group the
     destinations by source, then fan the sources' distance searches +
     routes out over domains, one searcher each. Every distance is
     exact whichever search finds it, so the result is a deterministic
     function of the seed regardless of the domain count. *)
  let st = Random.State.make [| seed; n; pairs; 0xD157 |] in
  let by_src = Array.make n [] in
  for _ = 1 to pairs do
    let u = Random.State.int st n in
    let rec draw () =
      let v = Random.State.int st n in
      if v = u then draw () else v
    in
    by_src.(u) <- draw () :: by_src.(u)
  done;
  let sources =
    Array.of_list
      (List.filter (fun u -> by_src.(u) <> []) (List.init n Fun.id))
  in
  let bfs_arcs = 2 * Graph.size g in
  let per_source =
    Parallel.map_range_with ?domains ~init:searcher (Array.length sources)
      (fun s i ->
        let u = sources.(i) in
        let dsts = by_src.(u) in
        let ratio v d =
          float_of_int (Routing_function.route_length rf u v) /. float_of_int d
        in
        (* One full BFS once the destinations' pair searches would scan
           at least its arcs, at the mean this domain has observed; the
           first source probes with pair searches. *)
        if s.searches > 0 && List.length dsts * s.scanned >= bfs_arcs * s.searches
        then begin
          Bfs.search s.ws g u;
          let d = Bfs.dist_array s.ws in
          List.rev_map (fun v -> ratio v d.(v)) dsts
        end
        else
          List.rev_map
            (fun v ->
              let d = Bfs.distance_between s.pw g u v in
              s.searches <- s.searches + 1;
              s.scanned <- s.scanned + Bfs.scanned s.pw;
              ratio v d)
            dsts)
  in
  let ratios = Array.make pairs 1.0 in
  let k = ref 0 in
  Array.iter
    (List.iter (fun r ->
         ratios.(!k) <- r;
         incr k))
    per_source;
  assert (!k = pairs);
  of_ratios ~exact:false ratios

let measure ?(cutoff = default_cutoff) ?pairs ?seed ?domains rf =
  let n = Graph.order rf.Routing_function.graph in
  if n <= cutoff || n < 2 then exact rf else sampled ?seed ?pairs ?domains rf

let pp fmt s =
  Format.fprintf fmt
    "%s over %d pairs: mean=%.3f p50=%.3f p95=%.3f p99=%.3f max=%.3f"
    (if s.ds_exact then "exact" else "sampled")
    s.ds_pairs s.ds_mean s.ds_p50 s.ds_p95 s.ds_p99 s.ds_max
