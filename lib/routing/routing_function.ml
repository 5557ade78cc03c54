open Umrs_graph

type header = Dest of Graph.vertex | Packed of int array

let pp_header fmt = function
  | Dest v -> Format.fprintf fmt "dest(%d)" v
  | Packed a ->
    Format.fprintf fmt "packed(%a)"
      (Format.pp_print_array
         ~pp_sep:(fun f () -> Format.pp_print_char f ',')
         Format.pp_print_int)
      a

type t = {
  graph : Graph.t;
  init : Graph.vertex -> Graph.vertex -> header;
  port : Graph.vertex -> header -> Graph.port option;
  next_header : Graph.vertex -> header -> header;
}

let of_next_hop graph f =
  {
    graph;
    init = (fun _ v -> Dest v);
    port =
      (fun u h ->
        match h with
        | Dest v -> if u = v then None else Some (f u v)
        | Packed _ -> invalid_arg "of_next_hop: unexpected header");
    next_header = (fun _ h -> h);
  }

type trace = { path : Graph.vertex list; headers : header list; hops : int }

exception Routing_loop of Graph.vertex * Graph.vertex

(* The hop loop every walk shares: [f] is folded over each vertex
   reached and the header it arrives with, the source and [init src
   dst] first. Returns the hop count and the fold. *)
let walk ?max_hops rf src dst f acc =
  if src = dst then invalid_arg "Routing_function.route: src = dst";
  let budget =
    match max_hops with
    | Some b -> b
    | None -> (4 * Graph.order rf.graph) + 16
  in
  let rec go cur h hops acc =
    match rf.port cur h with
    | None ->
      if cur <> dst then
        invalid_arg
          (Printf.sprintf
             "Routing_function.route: delivered at %d instead of %d" cur dst);
      (hops, acc)
    | Some k ->
      if hops >= budget then raise (Routing_loop (src, dst));
      let next = Graph.neighbor rf.graph cur ~port:k in
      let h' = rf.next_header cur h in
      go next h' (hops + 1) (f acc next h')
  in
  let h0 = rf.init src dst in
  go src h0 0 (f acc src h0)

let route ?max_hops rf src dst =
  let hops, (rpath, rheaders) =
    walk ?max_hops rf src dst (fun (rpath, rheaders) v h -> (v :: rpath, h :: rheaders)) ([], [])
  in
  { path = List.rev rpath; headers = List.rev rheaders; hops }

let route_length ?max_hops rf src dst = fst (walk ?max_hops rf src dst (fun () _ _ -> ()) ())

let delivers_all rf =
  let n = Graph.order rf.graph in
  try
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v then ignore (route rf u v)
      done
    done;
    true
  with Routing_loop _ | Invalid_argument _ -> false

let header_bits ~order h =
  let width_of x = max 1 (Umrs_bitcode.Codes.bits_needed (max 1 x)) in
  match h with
  | Dest _ -> max 1 (Umrs_bitcode.Codes.ceil_log2 (max 2 order))
  | Packed a -> Array.fold_left (fun acc x -> acc + width_of x) 0 a

let max_header_bits rf =
  let n = Graph.order rf.graph in
  let worst = ref 0 in
  for u = 0 to n - 1 do
    for v = 0 to n - 1 do
      if u <> v then
        List.iter
          (fun h -> worst := max !worst (header_bits ~order:n h))
          (route rf u v).headers
    done
  done;
  !worst

let stretch_at_most ?dist rf ~num ~den =
  let d = match dist with Some d -> d | None -> Parallel.all_pairs rf.graph in
  let n = Graph.order rf.graph in
  try
    for u = 0 to n - 1 do
      for v = 0 to n - 1 do
        if u <> v then begin
          let dr = route_length rf u v in
          if den * dr > num * d.(u).(v) then raise Exit
        end
      done
    done;
    true
  with Exit | Routing_loop _ -> false
