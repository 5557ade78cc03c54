open Umrs_graph

type stretch_bound = { num : int; den : int; strict : bool }

let shortest_paths_only = { num = 1; den = 1; strict = false }
let below_two = { num = 2; den = 1; strict = true }

(* The bound on an arc from a vertex [d] from the target to a
   neighbour [dw] from it: [den * (1 + dw) <= num * d], or [<]. *)
let admits bound ~d ~dw =
  dw <> Bfs.infinity
  &&
  let lhs = bound.den * (1 + dw) and rhs = bound.num * d in
  if bound.strict then lhs < rhs else lhs <= rhs

(* The usable ports of [src], ascending, [d] from the target, where
   [to_dst w] is a neighbour's distance to it. *)
let usable g ~bound ~src ~d to_dst =
  List.filter
    (fun k -> admits bound ~d ~dw:(to_dst (Graph.neighbor g src ~port:k)))
    (List.init (Graph.degree g src) (fun k -> k + 1))

let usable_ports g ~dist ~src ~dst ~bound =
  if src = dst then invalid_arg "Verify.usable_ports: src = dst";
  let d = dist.(src).(dst) in
  if d = Bfs.infinity then invalid_arg "Verify.usable_ports: unreachable";
  usable g ~bound ~src ~d (fun w -> dist.(w).(dst))

type violation = {
  row : int;
  col : int;
  expected : Graph.port;
  usable : Graph.port list;
}

let check g ~constrained ~targets m ~bound =
  let p, q = Matrix.dims m in
  if Array.length constrained <> p || Array.length targets <> q then
    invalid_arg "Verify.check: dimension mismatch";
  (* The graph is undirected, so one search from a target gives every
     distance to it: a target's search runs when a cell first needs it.
     Cells go last to first, each raising as [usable_ports] does. *)
  let ws = Bfs.workspace () in
  let to_target = Array.make (Graph.order g) [||] in
  let distances_to v =
    if Array.length to_target.(v) = 0 then to_target.(v) <- Bfs.distances_with ws g v;
    to_target.(v)
  in
  let violations = ref [] in
  for i = p - 1 downto 0 do
    for j = q - 1 downto 0 do
      let src = constrained.(i) and dst = targets.(j) in
      if src = dst then invalid_arg "Verify.usable_ports: src = dst";
      let to_dst = distances_to dst in
      let d = to_dst.(src) in
      if d = Bfs.infinity then invalid_arg "Verify.usable_ports: unreachable";
      (* the cell holds iff exactly one port is usable and it is m_ij *)
      let row = Graph.neighbors g src in
      let count = ref 0 and first = ref 0 in
      for k = Array.length row - 1 downto 0 do
        if admits bound ~d ~dw:to_dst.(row.(k)) then begin
          incr count;
          first := k + 1
        end
      done;
      let expected = Matrix.get m i j in
      if !count <> 1 || !first <> expected then
        let usable = usable g ~bound ~src ~d (fun w -> to_dst.(w)) in
        violations := { row = i; col = j; expected; usable } :: !violations
    done
  done;
  match !violations with [] -> Ok () | vs -> Error vs

let check_cgraph (t : Cgraph.t) ~bound =
  check t.Cgraph.graph ~constrained:t.Cgraph.constrained
    ~targets:t.Cgraph.targets t.Cgraph.matrix ~bound

let forced_fraction (t : Cgraph.t) ~bound =
  let p, q = Matrix.dims t.Cgraph.matrix in
  match check_cgraph t ~bound with
  | Ok () -> 1.0
  | Error vs ->
    let bad = List.length vs in
    float_of_int ((p * q) - bad) /. float_of_int (p * q)
