open Umrs_graph
open Umrs_bitcode

(* A radius past [n - 1] reaches the whole (connected) graph, so each
   search bound below is capped at [n] and never overflows. *)
let partition ~radius g =
  if radius < 0 then invalid_arg "Hierarchical: negative radius";
  let n = Graph.order g in
  let cluster_of = Array.make n (-1) in
  let centers = ref [] and count = ref 0 in
  let ws = Bfs.workspace () in
  for v = 0 to n - 1 do
    if cluster_of.(v) = -1 then begin
      (* claim unassigned vertices within [radius] of v *)
      Bfs.search ~radius:(min radius n + 1) ws g v;
      let ball = Bfs.visit_order ws in
      for j = 0 to Bfs.reached ws - 1 do
        let w = ball.(j) in
        if cluster_of.(w) = -1 then cluster_of.(w) <- !count
      done;
      centers := v :: !centers;
      incr count
    end
  done;
  (cluster_of, Array.of_list (List.rev !centers))

(* [partition] takes vertex 0 as its first center, so at [r = ecc(0)]
   it has one center: the search stops there at the latest, and one
   BFS bounds it where [Bfs.diameter] would take [n]. *)
let default_radius g =
  let n = Graph.order g in
  let target = int_of_float (Float.ceil (sqrt (float_of_int n))) in
  let ecc = if n = 0 then 0 else Bfs.eccentricity g 0 in
  let rec search r =
    if r >= ecc then ecc
    else begin
      let _, centers = partition ~radius:r g in
      if Array.length centers <= target then r else search (r + 1)
    end
  in
  search 1

let build ?radius g =
  if not (Bfs.is_connected g) then
    invalid_arg "Hierarchical: need a connected graph";
  let n = Graph.order g in
  let radius = match radius with Some r -> r | None -> default_radius g in
  let cluster_of, centers = partition ~radius g in
  (* one workspace for the searches from the centers and the balls *)
  let ws = Bfs.workspace () in
  let ncl = Array.length centers in
  (* inter-cluster: [inter.(v * ncl + c)] is v's port toward center c,
     0 at the center *)
  let inter = Array.make (n * ncl) 0 in
  Array.iteri
    (fun c center ->
      Bfs.search ws g center;
      let dist = Bfs.dist_array ws in
      for v = 0 to n - 1 do
        if v <> center then inter.((v * ncl) + c) <- Bfs.port_toward g dist v
      done)
    centers;
  (* ball entries: for each destination w, every router within distance
     2r of w stores a shortest-path port toward w. Phase-2 soundness:
     once the target is inside the current ball, the next hop is
     strictly closer, so the target stays inside every later ball. *)
  let ball = if radius >= n then n else (2 * radius) + 1 in
  let balls = Ball_table.build ws g ~radius:(Array.make n ball) in
  let init _u v = Routing_function.Packed [| v; cluster_of.(v) |] in
  let port x h =
    match h with
    | Routing_function.Packed [| v; c |] ->
      if x = v then None
      else begin
        match Ball_table.find balls x v with
        | Some _ as p -> p
        | None -> Some inter.((x * ncl) + c)
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
    for c = 0 to ncl - 1 do
      Codes.write_fixed buf inter.((v * ncl) + c) ~width:(pwidth + 1)
    done;
    (* intra table: (member, port) pairs, members ascending *)
    let lo = balls.Ball_table.off.(v) and hi = balls.off.(v + 1) in
    Codes.write_gamma buf (hi - lo + 1);
    for i = lo to hi - 1 do
      Codes.write_fixed buf balls.dst.(i) ~width:vwidth;
      Codes.write_fixed buf (balls.port.(i) - 1) ~width:pwidth
    done;
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
