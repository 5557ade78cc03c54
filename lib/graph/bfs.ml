let infinity = max_int

let distances_with_parents g src =
  let n = Graph.order g in
  if src < 0 || src >= n then invalid_arg "Bfs: bad source";
  let dist = Array.make n infinity in
  let parent = Array.make n (-1) in
  let queue = Queue.create () in
  dist.(src) <- 0;
  Queue.add src queue;
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    let dv = dist.(v) in
    Array.iter
      (fun w ->
        if dist.(w) = infinity then begin
          dist.(w) <- dv + 1;
          parent.(w) <- v;
          Queue.add w queue
        end)
      (Graph.neighbors g v)
  done;
  (dist, parent)

let distances g src = fst (distances_with_parents g src)

let port_toward g dist v =
  let deg = Graph.degree g v in
  let rec find k =
    if k > deg then invalid_arg "Bfs.port_toward: no neighbour is one hop closer"
    else if dist.(Graph.neighbor g v ~port:k) = dist.(v) - 1 then k
    else find (k + 1)
  in
  find 1

let all_pairs g = Array.init (Graph.order g) (fun v -> distances g v)

let dist g u v = (distances g u).(v)

let shortest_path g u v =
  let dist, parent = distances_with_parents g u in
  if dist.(v) = infinity then None
  else begin
    let rec build acc x = if x = u then u :: acc else build (x :: acc) parent.(x) in
    Some (build [] v)
  end

let eccentricity g v =
  Array.fold_left max 0 (distances g v)

let extreme_eccentricity ~better g =
  let n = Graph.order g in
  if n = 0 then (0, 0)
  else begin
    let best_v = ref 0 and best_e = ref (eccentricity g 0) in
    for v = 1 to n - 1 do
      let e = eccentricity g v in
      if better e !best_e then begin
        best_v := v;
        best_e := e
      end
    done;
    (!best_v, !best_e)
  end

let diameter g = snd (extreme_eccentricity ~better:(fun a b -> a > b) g)
let radius g = snd (extreme_eccentricity ~better:(fun a b -> a < b) g)
let center g = fst (extreme_eccentricity ~better:(fun a b -> a < b) g)

let bfs_tree g src =
  let n = Graph.order g in
  let _, parent = distances_with_parents g src in
  for v = 0 to n - 1 do
    if v <> src && parent.(v) = -1 then
      invalid_arg "Bfs.bfs_tree: graph is not connected"
  done;
  (* Children of each vertex, by increasing id (parent arrays already
     break ties by smallest port; child order here is by vertex id). *)
  let children = Array.make n [] in
  for v = n - 1 downto 0 do
    if v <> src then children.(parent.(v)) <- v :: children.(parent.(v))
  done;
  let adj =
    Array.init n (fun v ->
        let kids = Array.of_list children.(v) in
        if v = src then kids else Array.append [| parent.(v) |] kids)
  in
  Graph.of_adjacency adj

let count_shortest_paths g u v =
  let dist = distances g u in
  if dist.(v) = infinity then 0
  else begin
    (* Count by dynamic programming over vertices sorted by distance. *)
    let n = Graph.order g in
    let order = Array.init n (fun i -> i) in
    Array.sort (fun a b -> compare dist.(a) dist.(b)) order;
    let count = Array.make n 0 in
    count.(u) <- 1;
    Array.iter
      (fun x ->
        if count.(x) > 0 then
          Array.iter
            (fun w -> if dist.(w) = dist.(x) + 1 then count.(w) <- count.(w) + count.(x))
            (Graph.neighbors g x))
      order;
    count.(v)
  end
