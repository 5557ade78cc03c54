open Umrs_graph

let default_rate n =
  if n < 1 then invalid_arg "Tz_scheme.default_rate";
  1.0 /. sqrt (float_of_int n)

type data = Landmark_core.t

let sample_landmarks ~seed ~rate n =
  let st = Random.State.make [| seed; n; 0x72A9 |] in
  let picked = ref [] in
  for v = n - 1 downto 0 do
    if Random.State.float st 1.0 < rate then picked := v :: !picked
  done;
  (* An empty sample leaves nothing to route through; fall back to a
     single deterministic landmark so the scheme is total. *)
  let picked = if !picked = [] then [ 0 ] else !picked in
  Array.of_list picked

let prepare ?(seed = 0x72) ?rate g =
  let n = Graph.order g in
  (* Landmark_core.prepare refuses a disconnected graph off its first
     search *)
  if n < 1 then invalid_arg "Tz_scheme: need a non-empty graph";
  let rate =
    match rate with
    | Some r ->
      if not (r > 0.0 && r <= 1.0) then invalid_arg "Tz_scheme: rate in (0,1]";
      r
    | None -> default_rate n
  in
  Landmark_core.prepare g ~landmarks:(sample_landmarks ~seed ~rate n) ~up:Landmark_core.Parent

type decoded = Landmark_core.decoded = {
  dec_order : int;
  dec_self : Graph.vertex;
  dec_up_ports : int array;
  dec_cluster : (Graph.vertex * Graph.port) array;
  dec_children : (Graph.port * int * int) array array;
}

let decode_vertex = Landmark_core.decode_vertex

let build ?seed ?rate g =
  let d = prepare ?seed ?rate g in
  {
    Scheme.rf = Landmark_core.routing_function d;
    local_encoding = Landmark_core.encode_vertex d;
    description =
      Printf.sprintf "Thorup-Zwick stretch-3, %d sampled landmarks"
        (Array.length (Landmark_core.landmarks d));
  }

let scheme =
  {
    Scheme.name = "tz-3";
    stretch_bound = Some 3.0;
    build = (fun g -> build g);
  }
