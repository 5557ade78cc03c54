(* The three corpus-query front ends print the same lines for the same
   flags: `routing_lab corpus query` on a corpus file, `routing_lab
   remote` against an in-process server over that file, and
   `routing_lab cluster query` against an in-process two-shard cluster
   over it. Writes their stdout to corpus_query.out, remote_query.out
   and cluster_query.out, which the runtest rules diff against one
   expected file.

   usage: query_e2e ROUTING_LAB CORPUS FLAGS... *)

module Server = Umrs_server.Server
module Wire = Umrs_server.Wire
module Cluster = Umrs_cluster.Cluster

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("query_e2e: " ^ msg);
      exit 1)
    fmt

let ok what = function Ok v -> v | Error msg -> die "%s: %s" what msg

(* Run routing_lab with [args], stdout into [out]; it must exit 0. *)
let run lab args out =
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process lab (Array.of_list (lab :: args)) Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> die "routing_lab %s failed" (String.concat " " args)

let () =
  match Array.to_list Sys.argv with
  | _ :: lab :: corpus :: flags ->
    let dir = Filename.temp_dir "umrs_query_e2e" "" in
    run lab ([ "corpus"; "query"; corpus ] @ flags) "corpus_query.out";
    let sock = Filename.concat dir "server.sock" in
    let srv =
      ok "server"
        (Server.start
           { (Server.default_config (Wire.Unix_sock sock)) with
             Server.workers = 1; corpus = Some corpus })
    in
    run lab ([ "remote"; "-a"; "unix:" ^ sock ] @ flags) "remote_query.out";
    Server.shutdown srv;
    Server.wait srv;
    let cl =
      ok "cluster" (Cluster.start ~corpus ~shards:2 ~dir:(Filename.concat dir "cluster") ())
    in
    let node = Wire.addr_to_string (Cluster.addr cl ~shard:0 ~role:0) in
    run lab ([ "cluster"; "query"; "--addr"; node ] @ flags) "cluster_query.out";
    Cluster.shutdown cl;
    Cluster.wait cl;
    ignore (Sys.command ("rm -rf " ^ Filename.quote dir))
  | _ -> die "usage: query_e2e ROUTING_LAB CORPUS FLAGS..."
