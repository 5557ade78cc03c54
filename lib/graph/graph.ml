type vertex = int
type port = int

type t = { adj : vertex array array }

let order g = Array.length g.adj
let degree g v = Array.length g.adj.(v)

let size g =
  let s = Array.fold_left (fun acc row -> acc + Array.length row) 0 g.adj in
  s / 2

let max_degree g = Array.fold_left (fun m row -> max m (Array.length row)) 0 g.adj

(* [seen.(w) = v] once row [v] has listed [w]: a stamp keyed on the row,
   so one array serves every row with no clearing in between. *)
let check_simple_symmetric adj =
  let n = Array.length adj in
  let seen = Array.make n (-1) in
  for v = 0 to n - 1 do
    let row = adj.(v) in
    for k = 0 to Array.length row - 1 do
      let w = row.(k) in
      if w < 0 || w >= n then invalid_arg "Graph: endpoint out of range";
      if w = v then invalid_arg "Graph: loop";
      if seen.(w) = v then invalid_arg "Graph: duplicate edge";
      seen.(w) <- v;
      if not (Array.exists (fun x -> x = v) adj.(w)) then invalid_arg "Graph: not symmetric"
    done
  done

let of_adjacency adj =
  let adj = Array.map Array.copy adj in
  check_simple_symmetric adj;
  { adj }

let empty n =
  if n < 0 then invalid_arg "Graph.empty";
  { adj = Array.init n (fun _ -> [||]) }

let of_edges ~n edges =
  if n < 0 then invalid_arg "Graph.of_edges: negative order";
  let deg = Array.make n 0 in
  let check (u, v) =
    if u < 0 || u >= n || v < 0 || v >= n then
      invalid_arg "Graph.of_edges: endpoint out of range";
    if u = v then invalid_arg "Graph.of_edges: loop"
  in
  List.iter
    (fun (u, v) ->
      check (u, v);
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1)
    edges;
  let adj = Array.init n (fun v -> Array.make deg.(v) (-1)) in
  let fill = Array.make n 0 in
  List.iter
    (fun (u, v) ->
      adj.(u).(fill.(u)) <- v;
      fill.(u) <- fill.(u) + 1;
      adj.(v).(fill.(v)) <- u;
      fill.(v) <- fill.(v) + 1)
    edges;
  check_simple_symmetric adj;
  { adj }

let neighbor g v ~port =
  if v < 0 || v >= order g then invalid_arg "Graph.neighbor: bad vertex";
  if port < 1 || port > degree g v then invalid_arg "Graph.neighbor: bad port";
  g.adj.(v).(port - 1)

let neighbors g v = g.adj.(v)

let port_to g ~src ~dst =
  let row = g.adj.(src) in
  let rec find k =
    if k >= Array.length row then None
    else if row.(k) = dst then Some (k + 1)
    else find (k + 1)
  in
  find 0

let mem_edge g u v = port_to g ~src:u ~dst:v <> None

let iter_arcs g f =
  Array.iteri (fun u row -> Array.iteri (fun k v -> f u (k + 1) v) row) g.adj

let edges g =
  let acc = ref [] in
  iter_arcs g (fun u _ v -> if u < v then acc := (u, v) :: !acc);
  List.rev !acc

let fold_vertices g f init =
  let acc = ref init in
  for v = 0 to order g - 1 do
    acc := f !acc v
  done;
  !acc

let relabel_ports g perms =
  if Array.length perms <> order g then
    invalid_arg "Graph.relabel_ports: need one permutation per vertex";
  let adj =
    Array.mapi
      (fun v row ->
        let p = perms.(v) in
        if Array.length p <> Array.length row || not (Perm.is_valid p) then
          invalid_arg "Graph.relabel_ports: invalid permutation";
        let row' = Array.make (Array.length row) (-1) in
        Array.iteri (fun k w -> row'.(p.(k)) <- w) row;
        row')
      g.adj
  in
  { adj }

let permute_vertices g p =
  if Array.length p <> order g || not (Perm.is_valid p) then
    invalid_arg "Graph.permute_vertices: invalid permutation";
  let n = order g in
  let adj = Array.make n [||] in
  for v = 0 to n - 1 do
    adj.(p.(v)) <- Array.map (fun w -> p.(w)) g.adj.(v)
  done;
  { adj }

let attach_path g ~anchor ~len =
  if len < 0 then invalid_arg "Graph.attach_path: negative length";
  if len = 0 then g
  else begin
    let n = order g in
    if anchor < 0 || anchor >= n then invalid_arg "Graph.attach_path: anchor";
    let adj =
      Array.init (n + len) (fun v ->
          if v < n then
            if v = anchor then Array.append g.adj.(v) [| n |]
            else Array.copy g.adj.(v)
          else begin
            let prev = if v = n then anchor else v - 1 in
            if v = n + len - 1 then [| prev |] else [| prev; v + 1 |]
          end)
    in
    { adj }
  end

let disjoint_union g1 g2 =
  let n1 = order g1 in
  let adj =
    Array.append
      (Array.map Array.copy g1.adj)
      (Array.map (Array.map (fun w -> w + n1)) g2.adj)
  in
  { adj }

let add_edge g u v =
  let n = order g in
  if u < 0 || u >= n || v < 0 || v >= n then invalid_arg "Graph.add_edge: range";
  if u = v then invalid_arg "Graph.add_edge: loop";
  if mem_edge g u v then invalid_arg "Graph.add_edge: duplicate";
  let adj =
    Array.mapi
      (fun x row ->
        if x = u then Array.append row [| v |]
        else if x = v then Array.append row [| u |]
        else Array.copy row)
      g.adj
  in
  { adj }

let equal g1 g2 =
  order g1 = order g2
  && Array.for_all2 (fun r1 r2 -> r1 = r2) g1.adj g2.adj

let pp fmt g =
  Format.fprintf fmt "@[<v>graph on %d vertices, %d edges@," (order g) (size g);
  Array.iteri
    (fun v row ->
      Format.fprintf fmt "%d: %a@," v
        (Format.pp_print_array
           ~pp_sep:(fun f () -> Format.pp_print_string f " ")
           Format.pp_print_int)
        row)
    g.adj;
  Format.fprintf fmt "@]"
