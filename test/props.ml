(* Graph oracles the suites check generators and schemes against. *)

open Umrs_graph

let is_tree g = Bfs.is_connected g && Graph.size g = Graph.order g - 1

let is_regular g =
  let n = Graph.order g in
  n = 0
  ||
  let d = Graph.degree g 0 in
  let rec go v = v >= n || (Graph.degree g v = d && go (v + 1)) in
  go 1

let girth g =
  (* BFS from every vertex; an arc that is not a BFS-tree arc, closing
     at depths d and d', gives a cycle of length d + d' + 1. *)
  let n = Graph.order g in
  let ws = Bfs.workspace () in
  let best = ref max_int in
  for src = 0 to n - 1 do
    Bfs.search ~parents:true ws g src;
    let dist = Bfs.dist_array ws and parent = Bfs.parent_array ws in
    let order = Bfs.visit_order ws in
    for i = 0 to Bfs.reached ws - 1 do
      let v = order.(i) in
      Array.iter
        (fun w ->
          if parent.(w) <> v && parent.(v) <> w then
            best := min !best (dist.(v) + dist.(w) + 1))
        (Graph.neighbors g v)
    done
  done;
  if !best = max_int then None else Some !best

let is_bipartite g =
  (* colour each component by BFS depth parity; bipartite iff no edge
     joins two vertices of one colour *)
  let n = Graph.order g in
  let color = Array.make n (-1) in
  let ws = Bfs.workspace () in
  for src = 0 to n - 1 do
    if color.(src) = -1 then begin
      Bfs.search ws g src;
      let dist = Bfs.dist_array ws and order = Bfs.visit_order ws in
      for i = 0 to Bfs.reached ws - 1 do
        color.(order.(i)) <- dist.(order.(i)) land 1
      done
    end
  done;
  let ok = ref true in
  Graph.iter_arcs g (fun u _ w -> if color.(u) = color.(w) then ok := false);
  !ok

let is_chordal g =
  let n = Graph.order g in
  if n = 0 then true
  else begin
    (* Maximum cardinality search produces a reverse perfect elimination
       ordering iff the graph is chordal. *)
    let weight = Array.make n 0 in
    let placed = Array.make n false in
    let order = Array.make n (-1) in
    for i = n - 1 downto 0 do
      let v = ref (-1) in
      for u = 0 to n - 1 do
        if (not placed.(u)) && (!v = -1 || weight.(u) > weight.(!v)) then v := u
      done;
      order.(i) <- !v;
      placed.(!v) <- true;
      Array.iter (fun w -> if not placed.(w) then weight.(w) <- weight.(w) + 1) (Graph.neighbors g !v)
    done;
    let pos = Array.make n 0 in
    Array.iteri (fun i v -> pos.(v) <- i) order;
    (* Check: for each v, its later neighbours' earliest one is adjacent
       to the rest (standard PEO verification). *)
    let adjacent u w = Graph.mem_edge g u w in
    let ok = ref true in
    for i = 0 to n - 1 do
      let v = order.(i) in
      let later =
        Array.to_list (Graph.neighbors g v)
        |> List.filter (fun w -> pos.(w) > i)
      in
      match later with
      | [] -> ()
      | _ ->
        let u =
          List.fold_left (fun a w -> if pos.(w) < pos.(a) then w else a)
            (List.hd later) later
        in
        List.iter (fun w -> if w <> u && not (adjacent u w) then ok := false) later
    done;
    !ok
  end
