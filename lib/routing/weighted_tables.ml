open Umrs_graph
open Umrs_bitcode

let next_hop_matrix w =
  let g = Weighted.graph w in
  let n = Graph.order g in
  let dist = Weighted.all_pairs w in
  let m = Array.make_matrix n n 0 in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then begin
        if dist.(u).(v) = Bfs.infinity then
          invalid_arg "Weighted_tables: disconnected graph";
        let deg = Graph.degree g u in
        let rec find k =
          if k > deg then assert false
          else begin
            let x = Graph.neighbor g u ~port:k in
            if Weighted.cost w u k + dist.(x).(v) = dist.(u).(v) then k
            else find (k + 1)
          end
        in
        m.(u).(v) <- find 1
      end
    done
  done;
  m

let build w =
  let g = Weighted.graph w in
  let m = next_hop_matrix w in
  let rf = Routing_function.of_next_hop g (fun u v -> m.(u).(v)) in
  let encode v =
    let n = Graph.order g in
    let deg = Graph.degree g v in
    let buf = Bitbuf.create () in
    if deg > 0 then begin
      let width = Codes.ceil_log2 (max 2 deg) in
      for dst = 0 to n - 1 do
        if dst <> v then Codes.write_fixed buf (m.(v).(dst) - 1) ~width
      done
    end;
    buf
  in
  {
    Scheme.rf;
    local_encoding = encode;
    description = "weighted shortest-path next-hop tables";
  }

let routed_cost w rf u v =
  let trace = Routing_function.route rf u v in
  Weighted.path_cost w trace.Routing_function.path

let stretch w rf =
  let dist = Weighted.all_pairs w in
  Stretch_dist.of_pairs (Graph.order (Weighted.graph w)) (fun u v ->
      float_of_int (routed_cost w rf u v) /. float_of_int dist.(u).(v))

let stretch_at_most w rf ~num ~den =
  let g = Weighted.graph w in
  let n = Graph.order g in
  let dist = Weighted.all_pairs w in
  try
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v && den * routed_cost w rf u v > num * dist.(u).(v) then
          raise Exit
      done
    done;
    true
  with Exit -> false
