module Wire = Umrs_server.Wire
module Server = Umrs_server.Server

type node = {
  nd_shard : int;
  nd_role : int;  (* 0 = primary, j > 0 = replica j-1 *)
  nd_addr : Wire.addr;
  mutable nd_server : Server.t option;
}

type t = {
  cl_map : Wire.shard_map;
  cl_map_path : string;
  cl_nodes : node array array;  (* [shard].[role] *)
  mutable cl_dead_crashes : int;  (* worker crashes of stopped nodes *)
}

let map t = t.cl_map
let map_path t = t.cl_map_path

let node_sock dir k role =
  Filename.concat dir
    (if role = 0 then Printf.sprintf "node%dp.sock" k
     else Printf.sprintf "node%dr%d.sock" k (role - 1))

let default_map_file = "cluster.umrsm"

let stop_node t nd =
  match nd.nd_server with
  | None -> ()
  | Some srv ->
    Server.shutdown srv;
    Server.wait srv;
    t.cl_dead_crashes <- t.cl_dead_crashes + Server.worker_crashes srv;
    nd.nd_server <- None

let start ~corpus ~shards ~dir ?(replicas = 0) ?(workers = 1)
    ?(queue_capacity = 64) ?(cache_capacity = 8) ?(map_version = 1) () =
  if replicas < 0 then invalid_arg "Cluster.start: replicas must be >= 0";
  match Umrs_store.Corpus.info ~path:corpus with
  | exception Sys_error m -> Error m
  | exception Invalid_argument m -> Error m
  | source -> (
    (* a previous cluster killed in this dir leaves socket paths and
       publication tempfiles behind; sweep them or our own binds fail *)
    match Membership.clean_dir dir with
    | Error _ as e -> e
    | Ok () ->
    match Umrs_store.Shard.split ~corpus ~shards ~out_dir:dir () with
    | Error _ as e -> e
    | Ok pieces ->
      let endpoints =
        Array.mapi
          (fun k _ ->
            ( Wire.Unix_sock (node_sock dir k 0),
              List.init replicas (fun j ->
                  Wire.Unix_sock (node_sock dir k (j + 1))) ))
          pieces
      in
      let map =
        Shard_map.build ~source ~version:map_version ~pieces ~endpoints
      in
      let map_path = Filename.concat dir default_map_file in
      Shard_map.save ~path:map_path map;
      (* Every node of shard group k — primary and replicas alike —
         serves the same piece under the same map slice, so failover is
         a pure client-side endpoint change. *)
      let nodes =
        Array.init (Array.length pieces) (fun k ->
            Array.init (replicas + 1) (fun role ->
                { nd_shard = k; nd_role = role;
                  nd_addr = Wire.Unix_sock (node_sock dir k role);
                  nd_server = None }))
      in
      let t =
        { cl_map = map; cl_map_path = map_path; cl_nodes = nodes;
          cl_dead_crashes = 0 }
      in
      let failure = ref None in
      Array.iteri
        (fun k group ->
          Array.iter
            (fun nd ->
              if !failure = None then begin
                let cfg =
                  { (Server.default_config nd.nd_addr) with
                    Server.workers; queue_capacity; cache_capacity;
                    corpus = Some pieces.(k).Umrs_store.Shard.pc_corpus;
                    shard = Some (map, k) }
                in
                match Server.start cfg with
                | Ok srv -> nd.nd_server <- Some srv
                | Error m ->
                  failure :=
                    Some
                      (Printf.sprintf "node %d/%d failed to start: %s" k
                         nd.nd_role m)
              end)
            group)
        nodes;
      match !failure with
      | None -> Ok t
      | Some m ->
        (* a half-started cluster never leaks servers *)
        Array.iter (Array.iter (stop_node t)) nodes;
        Error m)

let addr t ~shard ~role = t.cl_nodes.(shard).(role).nd_addr

let shard_count t = Array.length t.cl_nodes
let replica_count t = Array.length t.cl_nodes.(0) - 1

let live_nodes t =
  Array.fold_left
    (fun acc group ->
      Array.fold_left
        (fun acc nd -> if nd.nd_server = None then acc else acc + 1)
        acc group)
    0 t.cl_nodes

let kill t ~shard ~role = stop_node t t.cl_nodes.(shard).(role)
let kill_primary t shard = kill t ~shard ~role:0

let worker_crashes t =
  Array.fold_left
    (fun acc group ->
      Array.fold_left
        (fun acc nd ->
          match nd.nd_server with
          | None -> acc
          | Some srv -> acc + Server.worker_crashes srv)
        acc group)
    t.cl_dead_crashes t.cl_nodes

let shutdown t =
  Array.iter
    (fun group ->
      Array.iter
        (fun nd ->
          match nd.nd_server with Some srv -> Server.shutdown srv | None -> ())
        group)
    t.cl_nodes

let wait t = Array.iter (Array.iter (stop_node t)) t.cl_nodes
