(* serve-cluster: one `routing_lab cluster serve` child (2 shards,
   0 replicas, 1 worker each) serving the (3,4,3) corpus, driven by a
   single Umrs_cluster.Client thread in a closed loop at depth 1 (one
   connection per shard). ~90% point reads (Nth, Mem, Rank, Cgraph_of)
   routed to one shard, ~10% Range_prefix scatters whose prefix spans
   both shards, so the cluster client's routing and merge are on the
   path. *)

open Common
module Clock = Umrs_bench.Clock
module C = Umrs_client
module W = Umrs_server.Wire
module Cl = Umrs_cluster.Client
module S = Serving

let shards = 2
let scatter_share = 0.10
let sequence_len = 100_000

(* The benchmark and the cluster child move to the next CPU together
   every this many calibration stops (one second), so a slow spell on
   one CPU does not cover the whole run. *)
let stops_per_cpu = 10

(* A complete set-up takes about 3 s; it is repeated this many times and
   its median reported. *)
let setup_reps = 3

let node_addr dir k = W.Unix_sock (Filename.concat dir (Printf.sprintf "node%dp.sock" k))

type cluster = {
  pid : int;
  dir : string;
  corpus : string;
  client : Cl.t;
  fetch_s : float;
}

let start ctx ~dir =
  let corpus = S.build_corpus dir in
  let cdir = Filename.concat dir "cluster" in
  let pid =
    Proc.spawn ~log:(Filename.concat dir "cluster.log") ctx.routing_lab
      [ "cluster"; "serve"; "--corpus"; corpus; "--shards"; string_of_int shards;
        "--replicas"; "0"; "--workers"; "1"; "--dir"; cdir ]
  in
  Proc.await_ready ~pid ~what:"routing_lab cluster serve" (fun () ->
      List.for_all (fun k -> Proc.ping (node_addr cdir k)) (List.init shards Fun.id));
  let client, fetch_s =
    Clock.time (fun () ->
        Trace.span "cluster.fetch" (fun () ->
            match Cl.fetch ~rng:(Random.State.make [| 1 |]) (node_addr cdir 0) with
            | Ok c -> c
            | Error e -> failwith ("cluster fetch: " ^ C.error_to_string e)))
  in
  { pid; dir = cdir; corpus; client; fetch_s }

(* Prefixes whose records span both shards under the fetched map. *)
let scatter_prefixes map records =
  let candidates =
    [||]
    :: List.concat_map
         (fun a -> [| a |] :: List.init S.d (fun b -> [| a; b + 1 |]))
         (List.init S.d (fun a -> a + 1))
  in
  let spans pre =
    let a, b = W.route_prefix map pre in
    a <> b
    && Array.exists
         (fun m ->
           let key = W.matrix_key m in
           Array.length key >= Array.length pre
           && Array.for_all2 ( = ) (Array.sub key 0 (Array.length pre)) pre)
         records
  in
  match List.filter spans candidates with
  | [] -> failwith "no prefix spans both shards"
  | l -> Array.of_list l

let sequence ctx ~records ~prefixes =
  let st = rng ctx 0xC105 in
  Array.init sequence_len (fun _ ->
      if Random.State.float st 1.0 < scatter_share then
        W.Range_prefix prefixes.(Random.State.int st (Array.length prefixes))
      else
        let rec point () =
          match S.lookup st records with W.Range_prefix _ -> point () | r -> r
        in
        point ())

let is_scatter = function W.Range_prefix _ -> true | _ -> false

let call cl k req =
  Trace.span ~req:k (if is_scatter req then "cluster.scatter" else "cluster.point") (fun () ->
      Cl.call cl req)

let node_stats dir = S.sum_stats (List.init shards (fun k -> S.stats (node_addr dir k)))

type pass = {
  timed : S.run;
  window : int64 * int64;
  rss : float;
  before : W.server_stats;
  after : W.server_stats;
  client_stats : Cl.stats;
  crashes : int;
}

let crashes_in_log log =
  let ic = open_in log in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | exception End_of_file -> failwith "cluster log has no drain line"
    | line -> (
      try Scanf.sscanf line "cluster drained (%d worker crash" Fun.id with _ -> find ())
  in
  find ()

(* The Umrs_client layer on its own, for the traced run: point reads
   sent straight to shard 0's node one at a time, with spans around
   send and receive; every reply is checked against the corpus. *)
let direct_reads cl h =
  let sh = (Cl.map cl.client).W.sm_shards.(0) in
  match C.connect (node_addr cl.dir 0) with
  | Error e -> failwith ("connect to node 0: " ^ C.error_to_string e)
  | Ok c ->
    Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
    for i = 0 to 1999 do
      let k = sh.W.sh_lo + (i mod (sh.W.sh_hi - sh.W.sh_lo)) in
      let reply =
        Trace.span ~req:i "client.request" (fun () ->
            match Trace.span ~req:i "client.send" (fun () -> C.send c (W.Nth k)) with
            | Error e -> Error e
            | Ok ticket -> Trace.span ~req:i "client.recv" (fun () -> C.recv c ticket))
      in
      match reply with
      | Ok (W.R_matrix m) ->
        check (Umrs_core.Matrix.equal m (Umrs_store.Query.nth h k)) "node 0 answered Nth %d wrongly" k
      | Ok _ -> check false "node 0 answered Nth %d with another reply" k
      | Error e -> failwith ("Nth on node 0: " ^ C.error_to_string e)
    done

let run_pass ~traced ~seconds ctx cl =
  let records = S.records_of cl.corpus in
  let seq = sequence ctx ~records ~prefixes:(scatter_prefixes (Cl.map cl.client) records) in
  let timed = S.new_run seq in
  let before = node_stats cl.dir in
  List.iter (fun pid -> Cpu.pin ~pid (Cpu.of_round 0)) [ 0; cl.pid ];
  Trace.enabled := traced;
  let between i =
    if i > 0 && i mod stops_per_cpu = 0 then
      List.iter (fun pid -> Cpu.pin ~pid (Cpu.of_round (i / stops_per_cpu))) [ 0; cl.pid ]
  in
  let (), window =
    timed_phase (fun () ->
        let deadline_ns = Int64.add (Clock.now_ns ()) (Int64.of_float (seconds *. 1e9)) in
        S.drive timed ~call:(call cl.client) ~deadline_ns ~between)
  in
  Trace.enabled := false;
  let after = node_stats cl.dir in
  if traced then begin
    let h = S.open_local cl.corpus in
    Trace.enabled := true;
    direct_reads cl h;
    Trace.enabled := false;
    Umrs_store.Query.close h
  end;
  let client_stats = Cl.stats cl.client in
  Cl.close cl.client;
  let rss = Stat.peak_rss_mib ~children:[ cl.pid ] in
  Proc.stop cl.pid;
  let crashes = crashes_in_log (Filename.concat (Filename.dirname cl.dir) "cluster.log") in
  let h = S.open_local cl.corpus in
  Trace.enabled := traced;
  S.verify timed (fun _ req resp -> S.lookup_ok h req resp);
  Trace.enabled := false;
  Umrs_store.Query.close h;
  { timed; window; rss; before; after; client_stats; crashes }

let attempted p = p.timed.S.n + p.timed.S.errors

let e2e ctx =
  (* each set-up on the next CPU; every cluster but the last is stopped
     outside the timing *)
  let reps =
    Array.init setup_reps (fun i ->
        Cpu.pin (Cpu.of_round i);
        let cl, t =
          (* no kernel runs inside: a signal could interrupt the
             set-up's socket waits *)
          Calib.time ~wall:true ~sample:false (fun () ->
              start ctx ~dir:(Filename.concat ctx.work (Printf.sprintf "rep%d" i)))
        in
        if i < setup_reps - 1 then begin
          Cl.close cl.client;
          Proc.stop cl.pid
        end;
        (cl, t.Calib.ref_s))
  in
  let times = Array.map snd reps in
  let r = run_pass ~traced:false ~seconds:ctx.seconds ctx (fst reps.(setup_reps - 1)) in
  let c = S.calibrate r.timed in
  let points = S.latencies r.timed c (fun q -> not (is_scatter q)) in
  let scatters = S.latencies r.timed c is_scatter in
  let replies = r.timed.S.n in
  let attempted = attempted r in
  print_slowdown (Stat.median c.S.slowdowns);
  { attempted; failed = r.timed.S.errors;
    metrics =
      [ metric "setup_s" (Stat.median times) ~samples:setup_reps
          ~what:"build + index the corpus, start cluster serve, probe nodes, fetch the map";
        metric "peak_rss_mb" r.rss ~what:"max VmHWM of benchmark and cluster child";
        metric "success_frac" (float_of_int r.timed.S.n /. float_of_int attempted)
          ~samples:attempted ~what:"verified replies / requests sent";
        metric "primary_per_s" (float_of_int replies /. c.S.ref_s) ~samples:replies
          ~what:"verified requests/s, one client thread";
        metric "secondary_per_s" (float_of_int (Array.length scatters) /. c.S.ref_s)
          ~samples:(Array.length scatters) ~what:"verified two-shard scatters/s";
        metric "light_p50_us" (Stat.median points) ~samples:(Array.length points)
          ~what:"client-observed point read through the cluster client";
        metric "light_tail_us"
          (S.window_tail r.timed c (fun q -> not (is_scatter q)) ~what:"point read"
             ~pct:S.tail_pct ~stops:stops_per_cpu)
          ~samples:(Array.length points) ~what:"the same, p95 per second, lower quartile over seconds";
        metric "heavy_p50_us" (Stat.median scatters) ~samples:(Array.length scatters)
          ~what:"client-observed Range_prefix scatter over both shards";
        metric "heavy_tail_us"
          (S.window_tail r.timed c is_scatter ~what:"scatter" ~pct:S.tail_pct
             ~stops:stops_per_cpu)
          ~samples:(Array.length scatters) ~what:"the same, p95 per second, lower quartile over seconds" ] }

let traced ctx =
  let pass i ~traced =
    Cpu.pin (Cpu.of_round 0);
    let cl = start ctx ~dir:(Filename.concat ctx.work (Printf.sprintf "pass%d" i)) in
    (cl, run_pass ~traced ~seconds:(ctx.seconds /. 2.0) ctx cl)
  in
  let _, u = pass 0 ~traced:false in
  let cl, t = pass 1 ~traced:true in
  let per_request p = (S.calibrate p.timed).S.ref_s /. float_of_int p.timed.S.n in
  let spans = Trace.spans () in
  let aggs = Trace.aggregate spans in
  let scatter =
    Array.of_list
      (List.filter_map
         (fun s -> if s.Trace.name = "cluster.scatter" then Some (Trace.duration_s s *. 1e6) else None)
         spans)
  in
  ( { attempted = attempted u + attempted t; failed = u.timed.S.errors + t.timed.S.errors;
      metrics =
        S.stats_diff t.before t.after
        @ S.wire_costs t.timed
        @ [ metric "server.worker_crashes" (float_of_int (u.crashes + t.crashes));
            metric "store.query.nth_us" (span_p50_us aggs "store.query.nth");
            metric "store.query.mem_us" (span_p50_us aggs "store.query.mem");
            metric "store.query.rank_us" (span_p50_us aggs "store.query.rank");
            metric "store.query.range_prefix_us" (span_p50_us aggs "store.query.range_prefix");
            metric "store.query.cgraph_us" (span_p50_us aggs "store.query.cgraph");
            metric "client.send_us" (span_p50_us aggs "client.send");
            metric "client.recv_wait_us" (span_p50_us aggs "client.recv");
            metric "cluster.fetch_ms" (cl.fetch_s *. 1e3);
            metric "cluster.point_p50_us" (span_p50_us aggs "cluster.point");
            metric "cluster.scatter_p50_us" (span_p50_us aggs "cluster.scatter");
            metric "cluster.scatter_p99_us" (Stat.tail ~what:"scatter" ~pct:99.0 scatter);
            metric "cluster.failovers"
              (float_of_int (u.client_stats.Cl.s_failovers + t.client_stats.Cl.s_failovers));
            metric "cluster.refreshes"
              (float_of_int (u.client_stats.Cl.s_refreshes + t.client_stats.Cl.s_refreshes));
            metric "trace.coverage" (coverage spans [ t.window ]);
            metric "trace.overhead_frac" ((per_request t /. per_request u) -. 1.0) ] },
    spans )
