open Umrs_graph

let default_landmark_count n =
  if n < 1 then invalid_arg "Landmark_scheme.default_landmark_count";
  let f = float_of_int n in
  let l = int_of_float (Float.ceil (sqrt (f *. (1.0 +. (Float.log f /. Float.log 2.0))))) in
  max 1 (min n l)

type strategy = Random_landmarks | High_degree | K_center

type data = Landmark_core.t

let pick_landmarks ~strategy ~seed g l =
  let n = Graph.order g in
  match strategy with
  | Random_landmarks ->
    let st = Random.State.make [| seed; n; l |] in
    Array.sub (Perm.random st n) 0 l
  | High_degree ->
    let vs = Array.init n (fun v -> v) in
    Array.sort
      (fun a b ->
        match compare (Graph.degree g b) (Graph.degree g a) with
        | 0 -> compare a b
        | c -> c)
      vs;
    Array.sub vs 0 l
  | K_center ->
    (* greedy farthest-point: start from vertex 0, repeatedly add the
       vertex furthest from the current set *)
    let chosen = ref [ 0 ] in
    let dist_to_set = Bfs.distances g 0 in
    let dist_to_set = Array.copy dist_to_set in
    for _ = 2 to l do
      let far = ref 0 in
      for v = 1 to n - 1 do
        if dist_to_set.(v) > dist_to_set.(!far) then far := v
      done;
      chosen := !far :: !chosen;
      let d = Bfs.distances g !far in
      for v = 0 to n - 1 do
        if d.(v) < dist_to_set.(v) then dist_to_set.(v) <- d.(v)
      done
    done;
    Array.of_list !chosen

let prepare ?(seed = 0xC0C0A) ?landmarks ?(strategy = Random_landmarks) g =
  let n = Graph.order g in
  (* Landmark_core.prepare refuses a disconnected graph off its first
     search *)
  if n < 1 then invalid_arg "Landmark_scheme: need a non-empty graph";
  let l = match landmarks with Some l -> max 1 (min n l) | None -> default_landmark_count n in
  let chosen = pick_landmarks ~strategy ~seed g l in
  Array.sort compare chosen;
  Landmark_core.prepare g ~landmarks:chosen ~up:Landmark_core.Smallest_closer

type decoded = Landmark_core.decoded = {
  dec_order : int;
  dec_self : Graph.vertex;
  dec_up_ports : int array;
  dec_cluster : (Graph.vertex * Graph.port) array;
  dec_children : (Graph.port * int * int) array array;
}

let decode_vertex = Landmark_core.decode_vertex

let build ?seed ?landmarks ?strategy g =
  let d = prepare ?seed ?landmarks ?strategy g in
  {
    Scheme.rf = Landmark_core.routing_function d;
    local_encoding = Landmark_core.encode_vertex d;
    description =
      Printf.sprintf "landmark routing, %d landmarks, stretch <= 3"
        (Array.length (Landmark_core.landmarks d));
  }

let scheme =
  {
    Scheme.name = "landmark-3";
    stretch_bound = Some 3.0;
    build = (fun g -> build g);
  }
