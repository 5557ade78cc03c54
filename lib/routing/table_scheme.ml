open Umrs_graph
open Umrs_bitcode

(* The port table, one row per source: [ports.(u).(v)] is the port at
   [u] toward [v]. 0 marks an entry not yet filled (the diagonal stays
   0). *)
let empty_table g =
  if not (Bfs.is_connected g) then invalid_arg "Table_scheme: disconnected graph";
  let n = Graph.order g in
  Array.make_matrix n n 0

(* Column [v]: at every source [u <> v], the smallest port whose head is
   one step closer to [v], from one BFS rooted at [v] on [ws]. Every
   fill of a column writes the same ports, so two domains filling it at
   once agree. *)
let fill_column ws g (ports : int array array) v =
  Bfs.search ws g v;
  let dist = Bfs.dist_array ws in
  for u = 0 to Graph.order g - 1 do
    if u <> v then ports.(u).(v) <- Bfs.port_toward g dist u
  done

let next_hop_matrix g =
  let ports = empty_table g and ws = Bfs.workspace () in
  for v = 0 to Graph.order g - 1 do
    fill_column ws g ports v
  done;
  ports

let encode_vertex g table v =
  let n = Graph.order g in
  let deg = Graph.degree g v in
  let buf = Bitbuf.create () in
  if deg > 0 then begin
    let width = Codes.ceil_log2 deg in
    for dst = 0 to n - 1 do
      if dst <> v then Codes.write_fixed buf (table.(dst) - 1) ~width
    done
  end;
  buf

let decode_table buf ~order ~degree ~self =
  let table = Array.make order 0 in
  if degree > 0 then begin
    let width = Codes.ceil_log2 degree in
    let r = Bitbuf.reader buf in
    for dst = 0 to order - 1 do
      if dst <> self then table.(dst) <- 1 + Codes.read_fixed r ~width
    done
  end;
  table

(* The workspace a fill on demand searches on: one per domain, kept
   between fills. [busy] is read and set with no safepoint in between,
   so a thread of the same domain that fills meanwhile sees it and
   searches on a fresh workspace instead. A fill that raises leaves
   [busy] set on purpose: [Bfs.reset] undoes only a finished search, so
   the workspace may hold stale distances, which would give wrong ports.
   Do not clear [busy] in a [finally]. *)
type spare = { ws : Bfs.workspace; mutable busy : bool }

let spare = Domain.DLS.new_key (fun () -> { ws = Bfs.workspace (); busy = false })

let fill_on_demand g ports v =
  let s = Domain.DLS.get spare in
  if s.busy then fill_column (Bfs.workspace ()) g ports v
  else begin
    s.busy <- true;
    fill_column s.ws g ports v;
    s.busy <- false
  end

let build g =
  let ports = empty_table g in
  let port u v =
    let k = ports.(u).(v) in
    if k > 0 then k
    else begin
      fill_on_demand g ports v;
      ports.(u).(v)
    end
  in
  let row v =
    let r = ports.(v) in
    for dst = 0 to Array.length r - 1 do
      if dst <> v && r.(dst) = 0 then fill_on_demand g ports dst
    done;
    r
  in
  {
    Scheme.rf = Routing_function.of_next_hop g port;
    local_encoding = (fun v -> encode_vertex g (row v) v);
    description = "full shortest-path next-hop tables";
  }

let scheme = { Scheme.name = "routing-tables"; stretch_bound = Some 1.0; build }
