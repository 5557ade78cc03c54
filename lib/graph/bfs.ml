let infinity = max_int

(* One search's state, reused from search to search. Off the last
   search's [queue.(0 .. reached-1)], [dist] is [infinity], [parent]
   [-1] and [pport] 0, so a reset rewrites only the vertices that
   search reached. The arrays grow to the largest order searched;
   entries past a graph's order are never written. *)
type workspace = {
  mutable dist : int array;
  mutable parent : int array; (* [||] until a search asks for parents *)
  mutable pport : int array;  (* the port at the parent, sized with [parent] *)
  mutable queue : int array;  (* the FIFO queue, and the visit order *)
  mutable reached : int;
  mutable parented : bool;    (* the last search wrote [parent] *)
}

let workspace () =
  { dist = [||]; parent = [||]; pport = [||]; queue = [||]; reached = 0; parented = false }

(* Undo the last search's writes; the next one sets [reached] and
   [parented] afresh. *)
let reset ws =
  let queue = ws.queue and dist = ws.dist in
  for i = 0 to ws.reached - 1 do
    dist.(queue.(i)) <- infinity
  done;
  if ws.parented then begin
    let parent = ws.parent and pport = ws.pport in
    for i = 0 to ws.reached - 1 do
      parent.(queue.(i)) <- -1;
      pport.(queue.(i)) <- 0
    done
  end

(* After [reset]: every array is clean, so a grown one can start fresh. *)
let reserve ws n ~parents =
  if Array.length ws.dist < n then begin
    ws.dist <- Array.make n infinity;
    ws.queue <- Array.make n 0
  end;
  if parents && Array.length ws.parent < Array.length ws.dist then begin
    ws.parent <- Array.make (Array.length ws.dist) (-1);
    ws.pport <- Array.make (Array.length ws.dist) 0
  end

let search ?(parents = false) ?(radius = infinity) ws g src =
  let n = Graph.order g in
  if src < 0 || src >= n then invalid_arg "Bfs: bad source";
  if radius < 1 then invalid_arg "Bfs.search: radius < 1";
  reset ws;
  reserve ws n ~parents;
  let dist = ws.dist and parent = ws.parent and queue = ws.queue in
  (* a vertex at distance [last] is reached but not expanded *)
  let last = radius - 1 in
  dist.(src) <- 0;
  queue.(0) <- src;
  let head = ref 0 and tail = ref 1 in
  while !head < !tail do
    let v = queue.(!head) in
    incr head;
    let dv = dist.(v) in
    if dv < last then begin
      let row = Graph.neighbors g v in
      for k = 0 to Array.length row - 1 do
        let w = row.(k) in
        if dist.(w) = infinity then begin
          dist.(w) <- dv + 1;
          (* [pport] is read here, not bound beside [dist]: a search
             without parents would pay for one more live variable *)
          if parents then begin
            parent.(w) <- v;
            ws.pport.(w) <- k + 1
          end;
          queue.(!tail) <- w;
          incr tail
        end
      done
    end
  done;
  ws.reached <- !tail;
  ws.parented <- parents

let reached ws = ws.reached
let visit_order ws = ws.queue
let dist_array ws = ws.dist

let parent_array ws =
  if not ws.parented then invalid_arg "Bfs.parent_array: the last search kept no parents";
  ws.parent

let parent_port_array ws =
  if not ws.parented then invalid_arg "Bfs.parent_port_array: the last search kept no parents";
  ws.pport

(* ---------- point-to-point search ---------- *)

(* One side of a bidirectional search: a workspace whose queue holds
   every vertex within [level] of the side's root, in visit order, and
   which has expanded all but the frontier [queue.(head .. reached-1)],
   the vertices at distance exactly [level]. [arcs] is the sum of the
   frontier's degrees. *)
type side = { ws : workspace; mutable head : int; mutable level : int; mutable arcs : int }

type pair_workspace = { fwd : side; bwd : side; mutable scanned : int }

let side () = { ws = workspace (); head = 0; level = 0; arcs = 0 }
let pair_workspace () = { fwd = side (); bwd = side (); scanned = 0 }
let scanned pw = pw.scanned

let start s g n root =
  let ws = s.ws in
  reset ws;
  reserve ws n ~parents:false;
  ws.dist.(root) <- 0;
  ws.queue.(0) <- root;
  ws.reached <- 1;
  s.head <- 0;
  s.level <- 0;
  s.arcs <- Graph.degree g root

(* Expand [s]'s frontier by one level. Returns [-1] when no arc meets
   [o]'s ball, else the length of the walk through the first arc that
   does: [s.level + 1] to its head, then the head's distance on [o].

   Why that walk is shortest: let r and r' be the two sides' levels
   before this step. Their balls B(root, r) and B(root', r') are
   disjoint (an invariant: a level that meets nothing adds no vertex of
   the other ball). A shortest root-root' path of length D <= r + r'
   would have its vertex at distance min(r, D) from root in both, so
   D >= r + r' + 1. The first meeting arc leaves a vertex at distance r
   for a vertex w in B(root', r'); w is not in B(root', r' - 1), or
   the vertex at distance r would lie in B(root', r'). So the walk has
   length r + 1 + r', the lower bound. Only newly reached vertices are
   looked up on [o]: one [s] already reached is not in [o]'s ball. *)
let expand pw g s o =
  let dist = s.ws.dist and queue = s.ws.queue and other = o.ws.dist in
  let next = s.level + 1 and stop = s.ws.reached in
  let tail = ref stop and arcs = ref 0 and met = ref (-1) and i = ref s.head in
  while !met < 0 && !i < stop do
    let row = Graph.neighbors g queue.(!i) in
    incr i;
    let k = ref 0 in
    while !met < 0 && !k < Array.length row do
      let w = row.(!k) in
      incr k;
      if dist.(w) = infinity then begin
        if other.(w) <> infinity then met := next + other.(w)
        else begin
          dist.(w) <- next;
          queue.(!tail) <- w;
          incr tail;
          arcs := !arcs + Graph.degree g w
        end
      end
    done;
    pw.scanned <- pw.scanned + !k
  done;
  s.head <- stop;
  s.ws.reached <- !tail;
  s.level <- next;
  s.arcs <- !arcs;
  !met

let distance_between pw g u v =
  let n = Graph.order g in
  if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Bfs.distance_between: bad vertex";
  start pw.fwd g n u;
  start pw.bwd g n v;
  pw.scanned <- 0;
  if u = v then 0
  else begin
    let result = ref (-1) in
    while !result < 0 do
      (* the side with the cheaper frontier expands; a side whose level
         reaches nothing new has exhausted its component *)
      let s = if pw.fwd.arcs <= pw.bwd.arcs then pw.fwd else pw.bwd in
      let o = if s == pw.fwd then pw.bwd else pw.fwd in
      let met = expand pw g s o in
      if met >= 0 then result := met
      else if s.head = s.ws.reached then result := infinity
    done;
    !result
  end

(* A fresh workspace sizes its arrays to the graph's order exactly, so
   a one-off search can hand them out as its result. *)
let distances g src =
  let ws = workspace () in
  search ws g src;
  ws.dist

let distances_with_parents g src =
  let ws = workspace () in
  search ~parents:true ws g src;
  (ws.dist, ws.parent)

(* Top level, so a call allocates no closure. *)
let rec first_closer (row : int array) (dist : int array) closer k =
  if k >= Array.length row then invalid_arg "Bfs.port_toward: no neighbour is one hop closer"
  else if dist.(row.(k)) = closer then k + 1
  else first_closer row dist closer (k + 1)

let port_toward g dist v = first_closer (Graph.neighbors g v) dist (dist.(v) - 1) 0

let distances_with ws g src =
  search ws g src;
  Array.sub ws.dist 0 (Graph.order g)

let all_pairs g =
  let ws = workspace () in
  Array.init (Graph.order g) (distances_with ws g)

let dist g u v = distance_between (pair_workspace ()) g u v

let shortest_path g u v =
  let dist, parent = distances_with_parents g u in
  if dist.(v) = infinity then None
  else begin
    let rec build acc x = if x = u then u :: acc else build (x :: acc) parent.(x) in
    Some (build [] v)
  end

let is_connected g =
  let n = Graph.order g in
  n <= 1
  ||
  let ws = workspace () in
  search ws g 0;
  ws.reached = n

(* The last vertex reached is a farthest one: the queue is in
   nondecreasing distance order. *)
let eccentricity_with ws g v =
  search ws g v;
  if ws.reached < Graph.order g then infinity else ws.dist.(ws.queue.(ws.reached - 1))

let eccentricity g v = eccentricity_with (workspace ()) g v

let extreme_eccentricity ~better g =
  let n = Graph.order g in
  if n = 0 then (0, 0)
  else begin
    let ws = workspace () in
    let best_v = ref 0 and best_e = ref (eccentricity_with ws g 0) in
    for v = 1 to n - 1 do
      let e = eccentricity_with ws g v in
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

(* Dynamic programming over the vertices in visit order, which is
   nondecreasing in distance from [u]. *)
let count_shortest_paths g u v =
  let ws = workspace () in
  search ws g u;
  let dist = ws.dist in
  if dist.(v) = infinity then 0
  else begin
    let count = Array.make (Graph.order g) 0 in
    count.(u) <- 1;
    for i = 0 to ws.reached - 1 do
      let x = ws.queue.(i) in
      Array.iter
        (fun w -> if dist.(w) = dist.(x) + 1 then count.(w) <- count.(w) + count.(x))
        (Graph.neighbors g x)
    done;
    count.(v)
  end
