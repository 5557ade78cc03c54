type cluster = {
  center : Graph.vertex;
  radius : int;
  members : Graph.vertex array;
}

type t = { r : int; clusters : cluster array; home : int array }

(* Every search runs on one workspace bounded at the ball it needs, so
   a cluster costs its own ball, not an [n]-array. [B(v, limit)] is the
   search bounded at [limit + 1]; past [n - 1] it is the whole
   (connected) graph. A ball's visit order is nondecreasing in distance,
   so [B(v, rho)] is a prefix of [B(v, rho + r)]. *)
let build g ~r =
  if r < 0 then invalid_arg "Cover.build: negative radius";
  if not (Bfs.is_connected g) then
    invalid_arg "Cover.build: need a connected graph";
  let n = Graph.order g in
  let home = Array.make n (-1) in
  let clusters = ref [] in
  let count = ref 0 in
  let ws = Bfs.workspace () in
  let ball v limit = Bfs.search ~radius:(if limit >= n then n else limit + 1) ws g v in
  for v = 0 to n - 1 do
    if home.(v) = -1 then begin
      (* grow: rho += r while the (rho+r)-ball more than doubles the
         rho-ball; the last search is the cluster's ball *)
      let rho = ref 0 and grow = ref true and core = ref 0 in
      while !grow do
        ball v (!rho + r);
        let order = Bfs.visit_order ws and dist = Bfs.dist_array ws in
        core := 0;
        while !core < Bfs.reached ws && dist.(order.(!core)) <= !rho do
          incr core
        done;
        if Bfs.reached ws > 2 * !core then rho := !rho + r else grow := false
      done;
      let order = Bfs.visit_order ws in
      let members = Array.sub order 0 (Bfs.reached ws) in
      Array.sort Int.compare members;
      let idx = !count in
      incr count;
      clusters := { center = v; radius = !rho + r; members } :: !clusters;
      (* serve the unserved core: their r-balls fit inside the cluster *)
      for j = 0 to !core - 1 do
        if home.(order.(j)) = -1 then home.(order.(j)) <- idx
      done
    end
  done;
  { r; clusters = Array.of_list (List.rev !clusters); home }

let max_cluster_radius t =
  Array.fold_left (fun acc c -> max acc c.radius) 0 t.clusters

let max_membership g t =
  let n = Graph.order g in
  let count = Array.make n 0 in
  Array.iter
    (fun c -> Array.iter (fun v -> count.(v) <- count.(v) + 1) c.members)
    t.clusters;
  Array.fold_left max 0 count

let covers_balls g t =
  let n = Graph.order g in
  let ok = ref true in
  for v = 0 to n - 1 do
    let c = t.clusters.(t.home.(v)) in
    let inside = Hashtbl.create (Array.length c.members) in
    Array.iter (fun m -> Hashtbl.replace inside m ()) c.members;
    let dist = Bfs.distances g v in
    for u = 0 to n - 1 do
      if dist.(u) <= t.r && not (Hashtbl.mem inside u) then ok := false
    done
  done;
  !ok
