open Umrs_graph
open Umrs_bitcode

let partition ~radius g =
  if radius < 0 then invalid_arg "Hierarchical: negative radius";
  let n = Graph.order g in
  let cluster_of = Array.make n (-1) in
  let centers = ref [] in
  for v = 0 to n - 1 do
    if cluster_of.(v) = -1 then begin
      let c = List.length !centers in
      centers := v :: !centers;
      (* claim unassigned vertices within [radius] of v *)
      let dist = Bfs.distances g v in
      for w = 0 to n - 1 do
        if cluster_of.(w) = -1 && dist.(w) <= radius then cluster_of.(w) <- c
      done
    end
  done;
  (cluster_of, Array.of_list (List.rev !centers))

let default_radius g =
  let n = Graph.order g in
  let target = int_of_float (Float.ceil (sqrt (float_of_int n))) in
  let diam = Bfs.diameter g in
  let rec search r =
    if r >= diam then diam
    else begin
      let _, centers = partition ~radius:r g in
      if Array.length centers <= target then r else search (r + 1)
    end
  in
  search 1

let build ?radius g =
  if not (Graph.is_connected g) then
    invalid_arg "Hierarchical: need a connected graph";
  let n = Graph.order g in
  let radius = match radius with Some r -> r | None -> default_radius g in
  let cluster_of, centers = partition ~radius g in
  let ncl = Array.length centers in
  (* distances to every center, and to every vertex (for intra entries,
     reuse per-destination BFS lazily: compute all BFS once per member
     destination needed). *)
  let center_dist = Array.map (fun c -> Bfs.distances g c) centers in
  (* inter-cluster: port of v toward center c *)
  let inter =
    Array.init n (fun v ->
        Array.init ncl (fun c ->
            if centers.(c) = v then 0
            else Bfs.port_toward g center_dist.(c) v))
  in
  (* ball entries: for each destination w, every router within distance
     2r of w stores a shortest-path port toward w. Phase-2 soundness:
     once the target is inside the current ball, the next hop is
     strictly closer, so the target stays inside every later ball. *)
  let ball = Array.init n (fun _ -> Hashtbl.create 8) in
  for w = 0 to n - 1 do
    let dist = Bfs.distances g w in
    for v = 0 to n - 1 do
      if v <> w && dist.(v) <= 2 * radius then
        Hashtbl.replace ball.(v) w (Bfs.port_toward g dist v)
    done
  done;
  let intra = ball in
  let init _u v = Routing_function.Packed [| v; cluster_of.(v) |] in
  let port x h =
    match h with
    | Routing_function.Packed [| v; c |] ->
      if x = v then None
      else begin
        match Hashtbl.find_opt intra.(x) v with
        | Some p -> Some p
        | None -> Some inter.(x).(c)
      end
    | _ -> invalid_arg "hierarchical: malformed header"
  in
  let rf =
    { Routing_function.graph = g; init; port; next_header = (fun _ h -> h) }
  in
  let encode v =
    let deg = Graph.degree g v in
    let pwidth = Codes.ceil_log2 (max 2 deg) in
    let vwidth = Codes.ceil_log2 (max 2 n) in
    let buf = Bitbuf.create () in
    Codes.write_delta buf n;
    Codes.write_gamma buf (ncl + 1);
    Codes.write_bounded buf cluster_of.(v) ~bound:(max 2 ncl);
    (* inter table: one port per center (0 = self) *)
    Array.iter
      (fun p -> Codes.write_fixed buf p ~width:(pwidth + 1))
      inter.(v);
    (* intra table: (member, port) pairs *)
    Codes.write_gamma buf (Hashtbl.length intra.(v) + 1);
    let entries =
      Hashtbl.fold (fun w p acc -> (w, p) :: acc) intra.(v) []
      |> List.sort compare
    in
    List.iter
      (fun (w, p) ->
        Codes.write_fixed buf w ~width:vwidth;
        Codes.write_fixed buf (p - 1) ~width:pwidth)
      entries;
    buf
  in
  {
    Scheme.rf;
    local_encoding = encode;
    description =
      Printf.sprintf "hierarchical routing, %d clusters of radius %d" ncl
        radius;
  }

let scheme =
  {
    Scheme.name = "hierarchical";
    stretch_bound = None;
    build = (fun g -> build g);
  }
