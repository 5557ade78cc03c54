open Umrs_graph

type packet_result = {
  src : Graph.vertex;
  dst : Graph.vertex;
  hops : int;
  delivered_at : int;
}

type stats = {
  packets : int;
  delivered : int;
  rounds : int;
  total_hops : int;
  max_queue : int;
  max_arc_load : int;
  results : packet_result array;
}

type packet = {
  id : int;
  p_src : Graph.vertex;
  p_dst : Graph.vertex;
  mutable at : Graph.vertex;
  mutable header : Routing_function.header;
  mutable p_hops : int;
  mutable done_at : int; (* -1 in flight, -2 dropped, >= 0 delivered *)
}

type crossing = Cross | Retry | Drop

(* Core engine. [on_cross u k] decides the fate of the packet that won
   arc (u, port k) this round. Without [deflect], the packets that lost
   arbitration queue for the next round; with it, each one in packet-id
   order crosses a uniformly random out-arc no packet used this round,
   and waits only when every out-arc is taken (hot-potato switching). *)
let run_hooked ?round_limit ?deflect ~on_cross rf ~pairs =
  let g = rf.Routing_function.graph in
  let n = Graph.order g in
  let npackets = List.length pairs in
  let limit =
    match round_limit with
    | Some l -> l
    | None -> (16 * n) + (16 * npackets)
  in
  let packets =
    List.mapi
      (fun id (src, dst) ->
        if src = dst then invalid_arg "Simulator: src = dst";
        {
          id;
          p_src = src;
          p_dst = dst;
          at = src;
          header = rf.Routing_function.init src dst;
          p_hops = 0;
          done_at = -1;
        })
      pairs
    |> Array.of_list
  in
  let stride = Graph.max_degree g + 1 in
  let arc_key v port = (v * stride) + port in
  let loads = Hashtbl.create 64 in
  let max_queue = ref 0 in
  let max_arc_load = ref 0 in
  let in_flight = ref npackets in
  let round = ref 0 in
  let last_delivery = ref 0 in
  let try_deliver p =
    if p.done_at = -1 then begin
      match rf.Routing_function.port p.at p.header with
      | None ->
        if p.at <> p.p_dst then
          invalid_arg "Simulator: delivered at a wrong vertex";
        p.done_at <- !round;
        last_delivery := max !last_delivery !round;
        decr in_flight
      | Some _ -> ()
    end
  in
  (* arcs crossed this round; only the deflection step reads it *)
  let deflecting = Option.is_some deflect in
  let used = Hashtbl.create 64 in
  let cross p k =
    let key = arc_key p.at k in
    if deflecting then Hashtbl.replace used key ();
    let load = 1 + Option.value ~default:0 (Hashtbl.find_opt loads key) in
    Hashtbl.replace loads key load;
    max_arc_load := max !max_arc_load load;
    p.header <- rf.Routing_function.next_header p.at p.header;
    p.at <- Graph.neighbor g p.at ~port:k;
    p.p_hops <- p.p_hops + 1
  in
  let deflect_losers st losers =
    List.iter
      (fun p ->
        let free =
          List.filter
            (fun k -> not (Hashtbl.mem used (arc_key p.at k)))
            (List.init (Graph.degree g p.at) (fun k -> k + 1))
        in
        match free with
        | [] -> ()
        | _ ->
          cross p
            (List.nth free (Random.State.int st (List.length free))))
      (List.sort (fun a b -> compare a.id b.id) losers)
  in
  Array.iter try_deliver packets;
  while !in_flight > 0 && !round < limit do
    incr round;
    if deflecting then Hashtbl.clear used;
    let requests = Hashtbl.create 64 in
    Array.iter
      (fun p ->
        if p.done_at = -1 then begin
          match rf.Routing_function.port p.at p.header with
          | None -> assert false
          | Some k ->
            let key = arc_key p.at k in
            let queue =
              Option.value ~default:[] (Hashtbl.find_opt requests key)
            in
            Hashtbl.replace requests key (p :: queue)
        end)
      packets;
    let losers = ref [] in
    Hashtbl.iter
      (fun _ queue ->
        let queue = List.sort (fun a b -> compare a.id b.id) queue in
        max_queue := max !max_queue (List.length queue);
        match queue with
        | [] -> ()
        | winner :: rest -> (
          if deflecting then losers := rest @ !losers;
          match rf.Routing_function.port winner.at winner.header with
          | None -> assert false
          | Some k -> (
            match on_cross winner.at k with
            | Retry -> ()
            | Drop ->
              winner.done_at <- -2;
              decr in_flight
            | Cross -> cross winner k)))
      requests;
    Option.iter (fun st -> deflect_losers st !losers) deflect;
    Array.iter try_deliver packets
  done;
  let results =
    Array.map
      (fun p ->
        {
          src = p.p_src;
          dst = p.p_dst;
          hops = p.p_hops;
          delivered_at = (if p.done_at >= 0 then p.done_at else -1);
        })
      packets
  in
  {
    packets = npackets;
    delivered =
      Array.fold_left
        (fun acc p -> if p.done_at >= 0 then acc + 1 else acc)
        0 packets;
    rounds = !last_delivery;
    total_hops = Array.fold_left (fun acc p -> acc + p.p_hops) 0 packets;
    max_queue = !max_queue;
    max_arc_load = !max_arc_load;
    results;
  }

let run ?round_limit rf ~pairs =
  let stats = run_hooked ?round_limit ~on_cross:(fun _ _ -> Cross) rf ~pairs in
  if Telemetry.enabled () then
    Telemetry.emit "simulator.run"
      [ ("order", Telemetry.Int (Graph.order rf.Routing_function.graph));
        ("packets", Telemetry.Int stats.packets);
        ("delivered", Telemetry.Int stats.delivered);
        ("rounds", Telemetry.Int stats.rounds);
        ("total_hops", Telemetry.Int stats.total_hops);
        ("max_queue", Telemetry.Int stats.max_queue);
        ("max_arc_load", Telemetry.Int stats.max_arc_load) ];
  stats

let run_flaky ?round_limit st ~loss rf ~pairs =
  if loss < 0.0 || loss > 1.0 then
    invalid_arg "Simulator.run_flaky: need 0 <= loss <= 1";
  let on_cross _ _ = if Random.State.float st 1.0 < loss then Retry else Cross in
  run_hooked ?round_limit ~on_cross rf ~pairs

let run_with_dead_links ?round_limit ~dead rf ~pairs =
  let g = rf.Routing_function.graph in
  let dead_set = Hashtbl.create (List.length dead) in
  List.iter
    (fun (u, v) ->
      Hashtbl.replace dead_set (u, v) ();
      Hashtbl.replace dead_set (v, u) ())
    dead;
  let on_cross u k =
    let v = Graph.neighbor g u ~port:k in
    if Hashtbl.mem dead_set (u, v) then Drop else Cross
  in
  run_hooked ?round_limit ~on_cross rf ~pairs

let run_hot_potato ?round_limit st rf ~pairs =
  run_hooked ?round_limit ~deflect:st ~on_cross:(fun _ _ -> Cross) rf ~pairs

let all_pairs ?round_limit rf =
  let n = Graph.order rf.Routing_function.graph in
  let pairs = ref [] in
  for u = n - 1 downto 0 do
    for v = n - 1 downto 0 do
      if u <> v then pairs := (u, v) :: !pairs
    done
  done;
  run ?round_limit rf ~pairs:!pairs

let random_pairs ?round_limit st rf ~count =
  let n = Graph.order rf.Routing_function.graph in
  if n < 2 then invalid_arg "Simulator.random_pairs: need >= 2 vertices";
  let pairs =
    List.init count (fun _ ->
        let u = Random.State.int st n in
        let rec draw () =
          let v = Random.State.int st n in
          if v = u then draw () else v
        in
        (u, draw ()))
  in
  run ?round_limit rf ~pairs

let permutation_traffic ?round_limit st rf =
  let n = Graph.order rf.Routing_function.graph in
  let p = Perm.random st n in
  let pairs =
    List.filter_map
      (fun u -> if p.(u) = u then None else Some (u, p.(u)))
      (List.init n Fun.id)
  in
  run ?round_limit rf ~pairs

let mean_delay s =
  let sum = ref 0 and k = ref 0 in
  Array.iter
    (fun r ->
      if r.delivered_at >= 0 then begin
        sum := !sum + r.delivered_at;
        incr k
      end)
    s.results;
  if !k = 0 then 0.0 else float_of_int !sum /. float_of_int !k

let delays s =
  Array.of_list
    (List.filter_map
       (fun r ->
         if r.delivered_at >= 0 then Some (float_of_int r.delivered_at)
         else None)
       (Array.to_list s.results))

let delay_summary s =
  let d = delays s in
  if Array.length d = 0 then "(no deliveries)"
  else Umrs_bench.Quantile.(summary (of_array d))

let pp_stats fmt s =
  Format.fprintf fmt
    "packets=%d delivered=%d rounds=%d hops=%d mean_delay=%.2f max_queue=%d max_arc_load=%d"
    s.packets s.delivered s.rounds s.total_hops (mean_delay s) s.max_queue
    s.max_arc_load
