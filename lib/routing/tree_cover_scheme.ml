open Umrs_graph
open Umrs_bitcode

(* Per-cluster tree data for one member vertex. *)
type node = {
  parent_port : Graph.port; (* 0 at the root *)
  dfs : int;
  children : (Graph.port * int * int) array; (* port, dfs lo, dfs hi *)
}

type cluster_tree = {
  nodes : (Graph.vertex, node) Hashtbl.t;
}

type scale = {
  cover : Cover.t;
  trees : cluster_tree array; (* one per cluster *)
}

(* The BFS tree of cluster [c], rooted at its center. A cluster is the
   ball of its radius around its center, and a shortest path from the
   center stays inside that ball, so the kernel bounded at [radius + 1]
   reaches exactly the members: first-discoverer parents in port order,
   each vertex's children discovered, hence listed, in port order, with
   the port the search found them through, and DFS numbers in that
   order. *)
let build_tree ws g (c : Cover.cluster) =
  Bfs.search ~parents:true ~radius:(c.Cover.radius + 1) ws g c.Cover.center;
  let m = Bfs.reached ws in
  let order = Bfs.visit_order ws and parent = Bfs.parent_array ws
  and pport = Bfs.parent_port_array ws in
  (* positions in the visit order: a vertex's children are queued while
     it is expanded, so parents come in nondecreasing position *)
  let up = Array.make m 0 in
  let j = ref 0 in
  for k = 1 to m - 1 do
    while order.(!j) <> parent.(order.(k)) do incr j done;
    up.(k) <- !j
  done;
  let size = Array.make m 1 in
  for k = m - 1 downto 1 do
    size.(up.(k)) <- size.(up.(k)) + size.(k)
  done;
  (* preorder: each child takes the next free number of its parent *)
  let dfs = Array.make m 0 and next = Array.make m 1 in
  for k = 1 to m - 1 do
    dfs.(k) <- next.(up.(k));
    next.(up.(k)) <- dfs.(k) + size.(k);
    next.(k) <- dfs.(k) + 1
  done;
  let kids = Array.make m [] in
  for k = m - 1 downto 1 do
    kids.(up.(k)) <-
      (pport.(order.(k)), dfs.(k), dfs.(k) + size.(k) - 1) :: kids.(up.(k))
  done;
  let nodes = Hashtbl.create m in
  for k = 0 to m - 1 do
    let x = order.(k) in
    let parent_port =
      if k = 0 then 0 else Option.get (Graph.port_to g ~src:x ~dst:parent.(x))
    in
    Hashtbl.replace nodes x
      { parent_port; dfs = dfs.(k); children = Array.of_list kids.(k) }
  done;
  { nodes }

let prepare g =
  if not (Bfs.is_connected g) then
    invalid_arg "Tree_cover: need a connected graph";
  let nscales = 1 + Codes.ceil_log2 (max 1 (Bfs.diameter g)) in
  let ws = Bfs.workspace () in
  Array.init nscales (fun i ->
      let cover = Cover.build g ~r:(1 lsl i) in
      { cover; trees = Array.map (build_tree ws g) cover.Cover.clusters })

let routing_function g scales =
  let member_node i c v = Hashtbl.find_opt scales.(i).trees.(c).nodes v in
  let init u v =
    (* smallest scale at which u sits in v's home cluster *)
    let rec pick i =
      if i >= Array.length scales then
        invalid_arg "Tree_cover: no common cluster (disconnected?)"
      else begin
        let hc = scales.(i).cover.Cover.home.(v) in
        match member_node i hc u with
        | Some _ -> (i, hc)
        | None -> pick (i + 1)
      end
    in
    let i, hc = pick 0 in
    let dfs_v =
      match member_node i hc v with
      | Some node -> node.dfs
      | None -> assert false (* home cluster contains v *)
    in
    Routing_function.Packed [| v; i; hc; dfs_v |]
  in
  let port x h =
    match h with
    | Routing_function.Packed [| v; i; hc; dfs_v |] ->
      if x = v then None
      else begin
        match member_node i hc x with
        | None -> invalid_arg "Tree_cover: left the cluster"
        | Some node ->
          let rec scan k =
            if k >= Array.length node.children then None
            else begin
              let p, lo, hi = node.children.(k) in
              if lo <= dfs_v && dfs_v <= hi then Some p else scan (k + 1)
            end
          in
          (match scan 0 with
          | Some p -> Some p
          | None ->
            assert (node.parent_port > 0);
            Some node.parent_port)
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
      Array.iteri
        (fun c tree ->
          match Hashtbl.find_opt tree.nodes v with
          | Some node -> containing := (c, node) :: !containing
          | None -> ())
        s.trees;
      let containing = List.rev !containing in
      Codes.write_gamma buf (List.length containing + 1);
      List.iter
        (fun (c, node) ->
          Codes.write_fixed buf c ~width:cwidth;
          Codes.write_fixed buf node.parent_port ~width:(pwidth + 1);
          Codes.write_fixed buf node.dfs ~width:vwidth;
          Codes.write_gamma buf (Array.length node.children + 1);
          Array.iter
            (fun (p, lo, hi) ->
              Codes.write_fixed buf (p - 1) ~width:pwidth;
              Codes.write_fixed buf lo ~width:vwidth;
              Codes.write_fixed buf hi ~width:vwidth)
            node.children)
        containing)
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
