open Umrs_graph
open Umrs_bitcode

type up = Graph.t -> dist:int array -> parent:int array -> Graph.vertex -> Graph.port

type tree = {
  dfs : int array;                          (* DFS number per vertex *)
  children : (int * int * int) array array; (* (port, dfs lo, dfs hi) per
                                               child, in port order *)
  up : int array;                           (* port toward the root, 0 there *)
}

type t = {
  graph : Graph.t;
  landmark : int array;
  dist_to_a : int array;
  home : int array;
  cluster : (int * int) array array;  (* cluster.(x) = (dst, port), by dst *)
  trees : tree array;                 (* one per landmark *)
}

(* BFS tree of [root], DFS numbered with children in port order: a
   vertex y on port k of x is a child of x iff parent.(y) = x. *)
let tree g ~up ~dist ~parent root =
  let n = Graph.order g in
  let dfs = Array.make n 0 and last = Array.make n 0 in
  let counter = ref 0 in
  let rec visit x =
    dfs.(x) <- !counter;
    incr counter;
    let row = Graph.neighbors g x in
    for k = 0 to Array.length row - 1 do
      if parent.(row.(k)) = x then visit row.(k)
    done;
    last.(x) <- !counter - 1
  in
  visit root;
  let children =
    Array.init n (fun x ->
        let row = Graph.neighbors g x in
        let rec kids k acc =
          if k = 0 then Array.of_list acc
          else begin
            let y = row.(k - 1) in
            kids (k - 1) (if parent.(y) = x then (k, dfs.(y), last.(y)) :: acc else acc)
          end
        in
        kids (Array.length row) [])
  in
  let up = Array.init n (fun v -> if v = root then 0 else up g ~dist ~parent v) in
  { dfs; children; up }

let prepare g ~landmarks ~up =
  let n = Graph.order g in
  let dist_to_a = Array.make n max_int and home = Array.make n 0 in
  (* one workspace for every search: the landmark trees, then the
     balls *)
  let ws = Bfs.workspace () in
  (* landmarks in index order, so a strict < keeps the smaller index
     on ties *)
  let trees =
    Array.init (Array.length landmarks) (fun i ->
        let root = landmarks.(i) in
        Bfs.search ~parents:true ws g root;
        let dist = Bfs.dist_array ws and parent = Bfs.parent_array ws in
        for v = 0 to n - 1 do
          if dist.(v) < dist_to_a.(v) then begin
            dist_to_a.(v) <- dist.(v);
            home.(v) <- i
          end
        done;
        tree g ~up ~dist ~parent root)
  in
  (* x <> v stores v iff d(x,v) < d(v,A): x lies in v's ball. Taking
     destinations in decreasing order leaves each list sorted. *)
  let lists = Array.make n [] in
  for v = n - 1 downto 0 do
    if dist_to_a.(v) > 0 then begin
      Bfs.search ~radius:dist_to_a.(v) ws g v;
      let ball = Bfs.visit_order ws and dist = Bfs.dist_array ws in
      for j = 1 to Bfs.reached ws - 1 do
        let x = ball.(j) in
        lists.(x) <- (v, Bfs.port_toward g dist x) :: lists.(x)
      done
    end
  done;
  {
    graph = g;
    landmark = landmarks;
    dist_to_a;
    home;
    cluster = Array.map Array.of_list lists;
    trees;
  }

let landmarks d = Array.copy d.landmark
let home d v = d.home.(v)
let dist_to_landmarks d v = d.dist_to_a.(v)
let cluster_members d x = Array.map fst d.cluster.(x)

let bunch d v =
  let radius = d.dist_to_a.(v) in
  if radius = 0 then [||]
  else begin
    let ws = Bfs.workspace () in
    Bfs.search ~radius ws d.graph v;
    let members = Array.sub (Bfs.visit_order ws) 1 (Bfs.reached ws - 1) in
    Array.sort compare members;
    members
  end

let cluster_lookup d x dst =
  let a = d.cluster.(x) in
  let rec bin lo hi =
    if lo > hi then None
    else begin
      let mid = (lo + hi) / 2 in
      let w, p = a.(mid) in
      if w = dst then Some p else if w < dst then bin (mid + 1) hi else bin lo (mid - 1)
    end
  in
  bin 0 (Array.length a - 1)

let child_port t x ~dfs =
  let row = t.children.(x) in
  let rec scan i =
    if i >= Array.length row then None
    else begin
      let p, lo, hi = row.(i) in
      if lo <= dfs && dfs <= hi then Some p else scan (i + 1)
    end
  in
  scan 0

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
        match cluster_lookup d x v with
        | Some _ as p -> p
        | None -> (
          let t = d.trees.(li) in
          match child_port t x ~dfs with Some _ as p -> p | None -> Some t.up.(x))
      end
    | _ -> invalid_arg "Landmark_core: malformed header"
  in
  { Routing_function.graph = d.graph; init; port; next_header = (fun _ h -> h) }

let encode_vertex d v =
  let g = d.graph in
  let n = Graph.order g in
  let pwidth = Codes.ceil_log2 (max 2 (Graph.degree g v)) in
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
      let row = t.children.(v) in
      Codes.write_gamma buf (Array.length row + 1);
      Array.iter
        (fun (p, lo, hi) ->
          Codes.write_fixed buf (p - 1) ~width:pwidth;
          Codes.write_fixed buf lo ~width:vwidth;
          Codes.write_fixed buf hi ~width:vwidth)
        row)
    d.trees;
  buf

type decoded = {
  dec_order : int;
  dec_self : Graph.vertex;
  dec_up_ports : int array;
  dec_cluster : (Graph.vertex * Graph.port) array;
  dec_children : (Graph.port * int * int) array array;
}

let decode_vertex buf ~degree =
  let r = Bitbuf.reader buf in
  (* A count read off a corrupt record must not size an allocation the
     record cannot fill: each entry takes at least [width] bits. *)
  let count ~width what =
    let k = Codes.read_gamma r - 1 in
    if k > Bitbuf.remaining r / width then
      invalid_arg ("Landmark_core.decode_vertex: truncated " ^ what);
    k
  in
  let n = Codes.read_delta r in
  let vwidth = Codes.ceil_log2 (max 2 n) in
  let pwidth = Codes.ceil_log2 (max 2 degree) in
  let self = Codes.read_fixed r ~width:vwidth in
  let l = count ~width:(pwidth + 1) "landmark ports" in
  let up_ports = Array.init l (fun _ -> Codes.read_fixed r ~width:(pwidth + 1)) in
  let csize = count ~width:(vwidth + pwidth) "cluster table" in
  let cluster =
    Array.init csize (fun _ ->
        let w = Codes.read_fixed r ~width:vwidth in
        let p = 1 + Codes.read_fixed r ~width:pwidth in
        (w, p))
  in
  let children =
    Array.init l (fun _ ->
        let k = count ~width:(pwidth + (2 * vwidth)) "tree children" in
        Array.init k (fun _ ->
            let p = 1 + Codes.read_fixed r ~width:pwidth in
            let lo = Codes.read_fixed r ~width:vwidth in
            let hi = Codes.read_fixed r ~width:vwidth in
            (p, lo, hi)))
  in
  {
    dec_order = n;
    dec_self = self;
    dec_up_ports = up_ports;
    dec_cluster = cluster;
    dec_children = children;
  }
