let path n =
  if n < 1 then invalid_arg "Generators.path";
  Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1)))

let cycle n =
  if n < 3 then invalid_arg "Generators.cycle: need n >= 3";
  Graph.of_edges ~n (List.init n (fun i -> (i, (i + 1) mod n)))

let complete n =
  if n < 1 then invalid_arg "Generators.complete";
  let edges = ref [] in
  for u = n - 1 downto 0 do
    for v = n - 1 downto u + 1 do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n !edges

let complete_bipartite a b =
  if a < 1 || b < 1 then invalid_arg "Generators.complete_bipartite";
  let edges = ref [] in
  for u = a - 1 downto 0 do
    for v = a + b - 1 downto a do
      edges := (u, v) :: !edges
    done
  done;
  Graph.of_edges ~n:(a + b) !edges

let star n =
  if n < 2 then invalid_arg "Generators.star";
  Graph.of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1)))

let wheel n =
  if n < 4 then invalid_arg "Generators.wheel: need n >= 4";
  let rim = List.init (n - 1) (fun i -> (1 + i, 1 + ((i + 1) mod (n - 1)))) in
  let spokes = List.init (n - 1) (fun i -> (0, i + 1)) in
  Graph.of_edges ~n (rim @ spokes)

let hypercube dim =
  if dim < 0 || dim > 24 then invalid_arg "Generators.hypercube";
  let n = 1 lsl dim in
  (* Build adjacency directly so that port k flips bit k-1. *)
  let adj =
    Array.init n (fun v -> Array.init dim (fun k -> v lxor (1 lsl k)))
  in
  Graph.of_adjacency adj

let grid w h =
  if w < 1 || h < 1 then invalid_arg "Generators.grid";
  let id x y = (y * w) + x in
  let edges = ref [] in
  for y = h - 1 downto 0 do
    for x = w - 1 downto 0 do
      if x + 1 < w then edges := (id x y, id (x + 1) y) :: !edges;
      if y + 1 < h then edges := (id x y, id x (y + 1)) :: !edges
    done
  done;
  Graph.of_edges ~n:(w * h) !edges

let torus w h =
  if w < 3 || h < 3 then invalid_arg "Generators.torus: need w, h >= 3";
  let id x y = (y * w) + x in
  let edges = ref [] in
  for y = h - 1 downto 0 do
    for x = w - 1 downto 0 do
      edges := (id x y, id ((x + 1) mod w) y) :: !edges;
      edges := (id x y, id x ((y + 1) mod h)) :: !edges
    done
  done;
  Graph.of_edges ~n:(w * h) !edges

let torus_nd dims =
  if dims = [] then invalid_arg "Generators.torus_nd: no dimensions";
  List.iter
    (fun d -> if d < 3 then invalid_arg "Generators.torus_nd: need di >= 3")
    dims;
  let dims = Array.of_list dims in
  let k = Array.length dims in
  let n = Array.fold_left ( * ) 1 dims in
  let coords v =
    let c = Array.make k 0 in
    let rest = ref v in
    for i = 0 to k - 1 do
      c.(i) <- !rest mod dims.(i);
      rest := !rest / dims.(i)
    done;
    c
  in
  let id c =
    let v = ref 0 in
    for i = k - 1 downto 0 do
      v := (!v * dims.(i)) + c.(i)
    done;
    !v
  in
  let adj =
    Array.init n (fun v ->
        let c = coords v in
        Array.init (2 * k) (fun p ->
            let i = p / 2 in
            let delta = if p mod 2 = 0 then 1 else dims.(i) - 1 in
            let c' = Array.copy c in
            c'.(i) <- (c.(i) + delta) mod dims.(i);
            id c'))
  in
  Graph.of_adjacency adj

let generalized_petersen n k =
  if n < 3 || k < 1 || 2 * k >= n then invalid_arg "Generators.generalized_petersen";
  let outer = List.init n (fun i -> (i, (i + 1) mod n)) in
  let inner = List.init n (fun i -> (n + i, n + ((i + k) mod n))) in
  (* In the circulant, edge {i, i+k} appears twice when listed from both
     ends; dedup by canonical order. *)
  let inner =
    List.sort_uniq compare
      (List.map (fun (u, v) -> if u < v then (u, v) else (v, u)) inner)
  in
  let spokes = List.init n (fun i -> (i, n + i)) in
  Graph.of_edges ~n:(2 * n) (outer @ inner @ spokes)

let petersen () = generalized_petersen 5 2

let random_tree st n =
  if n < 1 then invalid_arg "Generators.random_tree";
  if n = 1 then Graph.empty 1
  else if n = 2 then Graph.of_edges ~n [ (0, 1) ]
  else begin
    (* Decode a uniform Pruefer sequence of length n-2. *)
    let seq = Array.init (n - 2) (fun _ -> Random.State.int st n) in
    let deg = Array.make n 1 in
    Array.iter (fun v -> deg.(v) <- deg.(v) + 1) seq;
    let module H = Set.Make (Int) in
    let leaves = ref H.empty in
    for v = 0 to n - 1 do
      if deg.(v) = 1 then leaves := H.add v !leaves
    done;
    let edges = ref [] in
    Array.iter
      (fun v ->
        let leaf = H.min_elt !leaves in
        leaves := H.remove leaf !leaves;
        edges := (leaf, v) :: !edges;
        deg.(v) <- deg.(v) - 1;
        if deg.(v) = 1 then leaves := H.add v !leaves)
      seq;
    (match H.elements !leaves with
    | [ u; v ] -> edges := (u, v) :: !edges
    | _ -> assert false);
    Graph.of_edges ~n !edges
  end

let caterpillar st ~spine ~legs =
  if spine < 1 || legs < 0 then invalid_arg "Generators.caterpillar";
  let n = spine + legs in
  let spine_edges = List.init (spine - 1) (fun i -> (i, i + 1)) in
  let leg_edges =
    List.init legs (fun i -> (Random.State.int st spine, spine + i))
  in
  Graph.of_edges ~n (spine_edges @ leg_edges)

let k_tree st ~k n =
  if k < 1 || n < k + 1 then invalid_arg "Generators.k_tree";
  (* cliques: the list of k-cliques a new vertex may attach to. *)
  let base = ref [] in
  for u = 0 to k do
    for v = u + 1 to k do
      base := (u, v) :: !base
    done
  done;
  let edges = ref !base in
  let cliques = ref [] in
  (* All k-subsets of the initial (k+1)-clique. *)
  for skip = 0 to k do
    cliques :=
      Array.of_list (List.filter (fun v -> v <> skip) (List.init (k + 1) Fun.id))
      :: !cliques
  done;
  let cliques = ref (Array.of_list !cliques) in
  for v = k + 1 to n - 1 do
    let c = !cliques.(Random.State.int st (Array.length !cliques)) in
    Array.iter (fun u -> edges := (u, v) :: !edges) c;
    (* New k-cliques: c with one vertex replaced by v. *)
    let fresh =
      Array.map
        (fun drop -> Array.map (fun u -> if u = drop then v else u) c)
        c
    in
    cliques := Array.append !cliques fresh
  done;
  Graph.of_edges ~n !edges

let maximal_outerplanar st n =
  if n < 3 then invalid_arg "Generators.maximal_outerplanar";
  let edges = ref (List.init n (fun i -> (i, (i + 1) mod n))) in
  (* Random triangulation: recursively split polygon [i..j] (as a fan of
     random apexes). Ears are chosen uniformly among the range. *)
  let rec triangulate i j =
    (* polygon with boundary vertices i, i+1, ..., j; chord (i,j) exists *)
    if j - i >= 2 then begin
      let apex = i + 1 + Random.State.int st (j - i - 1) in
      if apex - i >= 2 then edges := (i, apex) :: !edges;
      if j - apex >= 2 then edges := (apex, j) :: !edges;
      triangulate i apex;
      triangulate apex j
    end
  in
  triangulate 0 (n - 1);
  Graph.of_edges ~n !edges

let unit_circular_arc st ~n ~arc =
  if n < 1 || arc <= 0.0 || arc >= 1.0 then
    invalid_arg "Generators.unit_circular_arc";
  let start = Array.init n (fun _ -> Random.State.float st 1.0) in
  let intersects i j =
    (* Arcs [s, s+arc) on the unit circle (circumference 1). *)
    let gap =
      let d = Float.abs (start.(i) -. start.(j)) in
      Float.min d (1.0 -. d)
    in
    gap < arc
  in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if intersects i j then edges := (i, j) :: !edges
    done
  done;
  let g = Graph.of_edges ~n !edges in
  if Bfs.is_connected g then Some g else None

let random_connected st ~n ~m =
  if n < 1 then invalid_arg "Generators.random_connected";
  let max_m = n * (n - 1) / 2 in
  if m < n - 1 || m > max_m then
    invalid_arg "Generators.random_connected: bad edge count";
  (* Random spanning tree by random attachment (not uniform over trees,
     fine for benchmark workloads), then extra uniform non-edges. *)
  let present = Hashtbl.create (2 * m) in
  let canon u v = if u < v then (u, v) else (v, u) in
  let edges = ref [] in
  let add u v =
    Hashtbl.add present (canon u v) ();
    edges := canon u v :: !edges
  in
  let order = Perm.random st n in
  for i = 1 to n - 1 do
    let u = order.(i) and v = order.(Random.State.int st i) in
    add u v
  done;
  let remaining = ref (m - (n - 1)) in
  while !remaining > 0 do
    let u = Random.State.int st n and v = Random.State.int st n in
    if u <> v && not (Hashtbl.mem present (canon u v)) then begin
      add u v;
      decr remaining
    end
  done;
  Graph.of_edges ~n !edges

let random_regular st ~n ~d =
  if d < 1 || d >= n || (n * d) mod 2 <> 0 then
    invalid_arg "Generators.random_regular";
  let attempt () =
    let stubs = Array.make (n * d) 0 in
    for i = 0 to (n * d) - 1 do
      stubs.(i) <- i / d
    done;
    let p = Perm.random st (n * d) in
    let shuffled = Array.map (fun i -> stubs.(i)) p in
    let canon u v = if u < v then (u, v) else (v, u) in
    let seen = Hashtbl.create (n * d) in
    let edges = ref [] in
    let ok = ref true in
    let i = ref 0 in
    while !ok && !i < n * d do
      let u = shuffled.(!i) and v = shuffled.(!i + 1) in
      if u = v || Hashtbl.mem seen (canon u v) then ok := false
      else begin
        Hashtbl.add seen (canon u v) ();
        edges := canon u v :: !edges
      end;
      i := !i + 2
    done;
    if !ok then begin
      let g = Graph.of_edges ~n !edges in
      if Bfs.is_connected g then Some g else None
    end
    else None
  in
  let rec retry k =
    if k = 0 then
      invalid_arg "Generators.random_regular: could not sample a simple graph"
    else
      match attempt () with Some g -> g | None -> retry (k - 1)
  in
  retry 1000

let globe ~meridians ~parallels =
  if meridians < 2 || parallels < 1 then invalid_arg "Generators.globe";
  let n = 2 + (meridians * parallels) in
  let vertex i j = 2 + (i * parallels) + j in
  let edges = ref [] in
  for i = meridians - 1 downto 0 do
    edges := (0, vertex i 0) :: !edges;
    for j = 0 to parallels - 2 do
      edges := (vertex i j, vertex i (j + 1)) :: !edges
    done;
    edges := (vertex i (parallels - 1), 1) :: !edges
  done;
  Graph.of_edges ~n !edges

let de_bruijn_like dim =
  if dim < 1 || dim > 24 then invalid_arg "Generators.de_bruijn_like";
  let n = 1 lsl dim in
  let canon u v = if u < v then (u, v) else (v, u) in
  let seen = Hashtbl.create (4 * n) in
  let edges = ref [] in
  for v = 0 to n - 1 do
    List.iter
      (fun w ->
        if v <> w && not (Hashtbl.mem seen (canon v w)) then begin
          Hashtbl.add seen (canon v w) ();
          edges := canon v w :: !edges
        end)
      [ 2 * v mod n; ((2 * v) + 1) mod n ]
  done;
  Graph.of_edges ~n !edges

let barabasi_albert st ~n ~m =
  if m < 1 || n < m + 1 then invalid_arg "Generators.barabasi_albert";
  (* Preferential attachment seeded with a complete graph on m+1
     vertices: every vertex ends with degree >= m (the last vertex has
     exactly m) and the graph is connected by construction. Sampling is
     by the half-edge multiset, so a vertex is drawn with probability
     proportional to its current degree. *)
  let total_edges = (m * (m + 1) / 2) + ((n - m - 1) * m) in
  let ends = Array.make (max 2 (2 * total_edges)) 0 in
  let fill = ref 0 in
  let edges = ref [] in
  let add_edge u v =
    edges := (u, v) :: !edges;
    ends.(!fill) <- u;
    incr fill;
    ends.(!fill) <- v;
    incr fill
  in
  for u = 0 to m do
    for v = u + 1 to m do
      add_edge u v
    done
  done;
  let chosen = Array.make m (-1) in
  for v = m + 1 to n - 1 do
    let k = ref 0 in
    while !k < m do
      let t = ends.(Random.State.int st !fill) in
      let dup = ref false in
      for j = 0 to !k - 1 do
        if chosen.(j) = t then dup := true
      done;
      if not !dup then begin
        chosen.(!k) <- t;
        incr k
      end
    done;
    (* attach all m edges at once (degrees update between vertices, not
       between the m draws), in sorted target order so port labels are a
       deterministic function of the drawn set *)
    let picks = Array.sub chosen 0 m in
    Array.sort compare picks;
    Array.iter (fun t -> add_edge t v) picks
  done;
  Graph.of_edges ~n (List.rev !edges)

let chung_lu st ~n ~exponent =
  if n < 2 || exponent <= 2.0 then invalid_arg "Generators.chung_lu";
  (* Expected-degree (Chung-Lu) model: weight w_i = (n/(i+1))^(1/(b-1))
     yields a degree power law with exponent b. Each pair {i,j} is an
     edge independently with probability min(1, w_i w_j / sum w). *)
  let p = 1.0 /. (exponent -. 1.0) in
  let w =
    Array.init n (fun i -> (float_of_int n /. float_of_int (i + 1)) ** p)
  in
  let s = Array.fold_left ( +. ) 0.0 w in
  let edges = ref [] in
  for i = n - 1 downto 0 do
    for j = n - 1 downto i + 1 do
      if Random.State.float st 1.0 < w.(i) *. w.(j) /. s then
        edges := (i, j) :: !edges
    done
  done;
  (* The sampled graph may be disconnected; deterministically hang each
     stray component (by its smallest vertex) off vertex 0, the
     largest-weight hub. Cross-component pairs have no edge yet, so no
     duplicates arise. *)
  let parent = Array.init n Fun.id in
  let rec find x =
    if parent.(x) = x then x
    else begin
      let r = find parent.(x) in
      parent.(x) <- r;
      r
    end
  in
  let union u v =
    let a = find u and b = find v in
    if a <> b then parent.(max a b) <- min a b
  in
  List.iter (fun (u, v) -> union u v) !edges;
  for v = 1 to n - 1 do
    if find v <> find 0 then begin
      edges := (0, v) :: !edges;
      union 0 v
    end
  done;
  Graph.of_edges ~n !edges

let n_choose_2 n = n * (n - 1) / 2

let corpus st ~size =
  if size < 8 then invalid_arg "Generators.corpus: need size >= 8";
  let dim =
    (* closest power of two exponent *)
    let rec go d = if 1 lsl (d + 1) > size then d else go (d + 1) in
    go 1
  in
  let side = int_of_float (Float.round (sqrt (float_of_int size))) in
  let side = max 3 side in
  let uca =
    let rec try_arc arc k =
      if k = 0 then None
      else
        match unit_circular_arc st ~n:size ~arc with
        | Some g -> Some g
        | None -> try_arc (Float.min 0.9 (arc *. 1.5)) (k - 1)
    in
    try_arc (4.0 /. float_of_int size) 20
  in
  let base =
    [
      ("path", path size);
      ("cycle", cycle size);
      ("complete", complete size);
      ("star", star size);
      ("wheel", wheel (max 4 size));
      ("hypercube", hypercube dim);
      ("grid", grid side side);
      ("torus", torus side side);
      ("de_bruijn", de_bruijn_like dim);
      ("random_tree", random_tree st size);
      ("caterpillar", caterpillar st ~spine:(max 1 (size / 2)) ~legs:(size - max 1 (size / 2)));
      ("k_tree", k_tree st ~k:3 (max 4 size));
      ("outerplanar", maximal_outerplanar st size);
      ( "random_sparse",
        random_connected st ~n:size ~m:(min (n_choose_2 size) (2 * size)) );
      ( "random_dense",
        random_connected st ~n:size ~m:(min (n_choose_2 size) (size * size / 4)) );
      ("random_regular", random_regular st ~n:(size + (size * 3 mod 2)) ~d:3);
      ("barabasi_albert", barabasi_albert st ~n:size ~m:2);
      ("power_law", chung_lu st ~n:size ~exponent:2.5);
    ]
  in
  match uca with
  | Some g -> base @ [ ("unit_circular_arc", g) ]
  | None -> base
