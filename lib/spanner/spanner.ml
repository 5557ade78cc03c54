open Umrs_graph

(* Bounded-depth BFS in an adjacency-list-under-construction. *)
let within_distance adj n u v limit =
  if u = v then true
  else begin
    let dist = Array.make n (-1) in
    let queue = Queue.create () in
    dist.(u) <- 0;
    Queue.add u queue;
    let found = ref false in
    while (not !found) && not (Queue.is_empty queue) do
      let x = Queue.pop queue in
      if dist.(x) < limit then
        List.iter
          (fun w ->
            if dist.(w) = -1 then begin
              dist.(w) <- dist.(x) + 1;
              if w = v then found := true;
              Queue.add w queue
            end)
          adj.(x)
    done;
    !found
  end

let greedy g ~k =
  if k < 1 then invalid_arg "Spanner.greedy: need k >= 1";
  if not (Bfs.is_connected g) then
    invalid_arg "Spanner.greedy: graph must be connected";
  let n = Graph.order g in
  let limit = (2 * k) - 1 in
  let adj = Array.make n [] in
  let kept = Hashtbl.create (Graph.size g) in
  List.iter
    (fun (u, v) ->
      if not (within_distance adj n u v limit) then begin
        adj.(u) <- v :: adj.(u);
        adj.(v) <- u :: adj.(v);
        Hashtbl.add kept (u, v) ()
      end)
    (Graph.edges g);
  (* Rebuild with g's port order restricted to kept edges. *)
  let edges = ref [] in
  Graph.iter_arcs g (fun u _ v ->
      if u < v && Hashtbl.mem kept (u, v) then edges := (u, v) :: !edges);
  Graph.of_edges ~n (List.rev !edges)

let is_spanner g ~sub ~t =
  if Graph.order sub <> Graph.order g then false
  else if
    not
      (List.for_all (fun (u, v) -> Graph.mem_edge g u v) (Graph.edges sub))
  then false
  else begin
    let dg = Bfs.all_pairs g and dh = Bfs.all_pairs sub in
    let n = Graph.order g in
    let ok = ref true in
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v then
          if dh.(u).(v) = Bfs.infinity || dh.(u).(v) > t * dg.(u).(v) then
            ok := false
      done
    done;
    !ok
  end

let max_stretch g ~sub =
  let dg = Bfs.all_pairs g and dh = Bfs.all_pairs sub in
  let n = Graph.order g in
  let best = ref 1.0 in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v && dg.(u).(v) <> Bfs.infinity then begin
        if dh.(u).(v) = Bfs.infinity then invalid_arg "max_stretch: sub disconnected";
        let r = float_of_int dh.(u).(v) /. float_of_int dg.(u).(v) in
        if r > !best then best := r
      end
    done
  done;
  !best

let edge_ratio g ~sub = float_of_int (Graph.size sub) /. float_of_int (Graph.size g)
