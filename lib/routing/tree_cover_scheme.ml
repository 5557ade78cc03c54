open Umrs_graph
open Umrs_bitcode

type scale = { cover : Cover.t; trees : Landmark_core.tree array (* one per cluster *) }

(* A vertex's entry in cluster [c]'s tree: its rank in the sorted
   members, or -1 outside the cluster. *)
let entry s c v =
  let members = s.cover.Cover.clusters.(c).Cover.members in
  let rec bin lo hi =
    if lo > hi then -1
    else
      let mid = (lo + hi) / 2 in
      let w = members.(mid) in
      if w = v then mid else if w < v then bin (mid + 1) hi else bin lo (mid - 1)
  in
  bin 0 (Array.length members - 1)

(* The BFS tree of each cluster, rooted at its center. A cluster is the
   ball of its radius around its center, and a shortest path from the
   center stays inside that ball, so the kernel bounded at [radius + 1]
   reaches exactly the members; each stores its port to its parent. *)
let prepare g =
  let n = Graph.order g in
  if n > Landmark_core.max_order then
    invalid_arg (Printf.sprintf "Tree_cover: %d vertices, more than the %d a tree field holds"
                   n Landmark_core.max_order);
  if not (Bfs.is_connected g) then invalid_arg "Tree_cover: need a connected graph";
  let nscales = 1 + Codes.ceil_log2 (max 1 (Bfs.diameter g)) in
  let ws = Bfs.workspace () in
  let slot = Array.make n 0 and size = Array.make n 0 and off = Array.make n 0 in
  let tree (c : Cover.cluster) =
    Bfs.search ~parents:true ~radius:(c.Cover.radius + 1) ws g c.Cover.center;
    let m = Array.length c.Cover.members in
    if Bfs.reached ws <> m then
      invalid_arg (Printf.sprintf "Tree_cover: cluster at %d has %d members, its search reached %d"
                     c.Cover.center m (Bfs.reached ws));
    Array.iteri (fun rank v -> slot.(v) <- rank) c.Cover.members;
    Landmark_core.tree g ~up:Landmark_core.Parent ws ~slot ~size ~off
  in
  Array.init nscales (fun i ->
      let cover = Cover.build g ~r:(1 lsl i) in
      { cover; trees = Array.map tree cover.Cover.clusters })

let routing_function g scales =
  let init u v =
    (* smallest scale at which u sits in v's home cluster, which holds v *)
    let rec pick i =
      if i >= Array.length scales then
        invalid_arg "Tree_cover: no common cluster (disconnected?)"
      else begin
        let s = scales.(i) in
        let hc = s.cover.Cover.home.(v) in
        if entry s hc u < 0 then pick (i + 1)
        else
          let dfs_v = Landmark_core.dfs_number s.trees.(hc) (entry s hc v) in
          Routing_function.Packed [| v; i; hc; dfs_v |]
      end
    in
    pick 0
  in
  let port x h =
    match h with
    | Routing_function.Packed [| v; i; hc; dfs_v |] ->
      if x = v then None
      else begin
        let e = entry scales.(i) hc x and t = scales.(i).trees.(hc) in
        if e < 0 then invalid_arg "Tree_cover: left the cluster";
        match Landmark_core.child_port t e ~dfs:dfs_v with
        | Some _ as p -> p
        | None -> Some (Landmark_core.up_port t e)
      end
    | _ -> invalid_arg "Tree_cover: malformed header"
  in
  { Routing_function.graph = g; init; port; next_header = (fun _ h -> h) }

let encode_vertex g scales v =
  let n = Graph.order g in
  let deg = Graph.degree g v in
  let vwidth = Codes.ceil_log2 (max 2 n) in
  let pwidth = Codes.ceil_log2 (max 2 deg) in
  let buf = Bitbuf.create () in
  Codes.write_delta buf n;
  Codes.write_gamma buf (Array.length scales + 1);
  Array.iter
    (fun s ->
      let ncl = Array.length s.cover.Cover.clusters in
      let cwidth = Codes.ceil_log2 (max 2 ncl) in
      let containing = ref [] in
      for c = ncl - 1 downto 0 do
        let e = entry s c v in
        if e >= 0 then containing := (c, e) :: !containing
      done;
      Codes.write_gamma buf (List.length !containing + 1);
      List.iter
        (fun (c, e) ->
          let t = s.trees.(c) in
          Codes.write_fixed buf c ~width:cwidth;
          Codes.write_fixed buf (Landmark_core.up_port t e) ~width:(pwidth + 1);
          Codes.write_fixed buf (Landmark_core.dfs_number t e) ~width:vwidth;
          let kids = Landmark_core.children t e in
          Codes.write_gamma buf (Array.length kids + 1);
          Array.iter
            (fun (p, lo, hi) ->
              Codes.write_fixed buf (p - 1) ~width:pwidth;
              Codes.write_fixed buf lo ~width:vwidth;
              Codes.write_fixed buf hi ~width:vwidth)
            kids)
        !containing)
    scales;
  buf

let build g =
  let scales = prepare g in
  {
    Scheme.rf = routing_function g scales;
    local_encoding = encode_vertex g scales;
    description =
      Printf.sprintf "tree-cover routing, %d scales" (Array.length scales);
  }

let scheme =
  { Scheme.name = "tree-cover"; stretch_bound = None; build }

let stretch_guarantee g =
  let n = float_of_int (max 2 (Graph.order g)) in
  4.0 *. ((Float.log n /. Float.log 2.0) +. 2.0)
