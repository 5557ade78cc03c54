(* The serving side of the benchmark: the served (3,4,3) corpus, the
   closed-loop load generator, its calibration (Calib), and the check
   of every reply against the same query answered in-process. *)

open Umrs_core
open Common
module Clock = Umrs_bench.Clock
module C = Umrs_client
module W = Umrs_server.Wire
module Q = Umrs_store.Query

let p, q, d = (3, 4, 3)
(* Tails are read at p95: over the seconds of a run their p99 moved by
   10-15% between runs of the same code (the point reads' p99 is where
   interference from other tenants lands), their p95 by 5%. *)
let tail_pct = 95.0

(* Build and index the served corpus under [dir]. *)
let build_corpus dir =
  mkdir_p dir;
  let corpus = Filename.concat dir "corpus.umrs" in
  let o =
    Trace.span "store.builder.build" (fun () ->
        Umrs_store.Builder.build ~p ~q ~d ~out:corpus ())
  in
  let classes = Bignat.to_int_opt (Count.full_exact ~p ~q ~d) in
  check (Some o.Umrs_store.Builder.o_classes = classes) "served corpus has %d classes"
    o.Umrs_store.Builder.o_classes;
  (match Trace.span "store.index.build" (fun () -> Q.build ~corpus ()) with
  | Ok _ -> ()
  | Error e -> failwith ("index build: " ^ Q.error_to_string e));
  corpus

let open_local corpus =
  match Q.open_ ~corpus ~mmap:true () with
  | Ok h -> h
  | Error e -> failwith ("open corpus: " ^ Q.error_to_string e)

let records_of corpus =
  let h = open_local corpus in
  let n = (Q.header h).Umrs_store.Corpus.count in
  let r = Array.init n (Q.nth h) in
  Q.close h;
  r

(* Seeded lookup requests over a corpus of [records]: Nth, Mem (half on
   stored records), Rank, Range_prefix and Cgraph_of, equally likely. *)
let lookup st records =
  let count = Array.length records in
  let raw () = Orbit.random_raw st ~p ~q ~d in
  match Random.State.int st 5 with
  | 0 -> W.Nth (Random.State.int st count)
  | 1 ->
    W.Mem (if Random.State.bool st then records.(Random.State.int st count) else raw ())
  | 2 -> W.Rank (raw ())
  | 3 -> W.Range_prefix (Array.init (1 + Random.State.int st 3) (fun _ -> 1 + Random.State.int st d))
  | _ -> W.Cgraph_of (Random.State.int st count)

let query_span = function
  | W.Nth _ -> "store.query.nth"
  | W.Mem _ -> "store.query.mem"
  | W.Rank _ -> "store.query.rank"
  | W.Range_prefix _ -> "store.query.range_prefix"
  | _ -> "store.query.cgraph"

(* A graph of constraints travels as its matrix and the client rebuilds
   the graph from it, so the matrix is the whole of a Cgraph_of reply;
   keeping only it keeps a run's stored replies small. *)
let keep = function W.R_graph cg -> W.R_matrix cg.Cgraph.matrix | r -> r

(* Does [resp] (as kept) equal the in-process answer to lookup [req]? *)
let lookup_ok h req resp =
  Trace.span (query_span req) @@ fun () ->
  match (req, resp) with
  | W.Nth i, W.R_matrix m -> Matrix.equal m (Q.nth h i)
  | W.Mem m, W.R_found b -> b = Q.mem h m
  | W.Rank m, W.R_rank r -> r = Q.rank h m
  | W.Range_prefix pre, W.R_range (lo, hi) -> (lo, hi) = Q.range_prefix h pre
  | W.Cgraph_of i, W.R_matrix m -> Matrix.equal m (Q.cgraph h i).Cgraph.matrix
  | _ -> false

(* What a closed-loop phase leaves behind. Replies are kept once per
   sequence position, so memory does not grow with throughput; a
   position answered again (the sequence wraps) must get an equal
   reply. The loop stops every [probe_every] seconds to run the
   calibration kernel (Calib), which cuts the phase into intervals;
   every reply belongs to the interval it ran in. *)
type run = {
  seq : W.request array;
  replies : W.response option array;   (** by sequence position *)
  mutable ks : int array;              (** position of each reply *)
  mutable lat_us : float array;        (** its latency *)
  mutable interval : int array;        (** the interval it ran in *)
  mutable n : int;                     (** replies received *)
  mutable errors : int;                (** calls that failed *)
  mutable repeats_differ : int list;   (** positions answered differently *)
  mutable probes : (int64 * int64 * float) list;
      (** kernel runs, latest first: start, end (monotonic ns), busy seconds *)
}

(* The reply log is allocated up front at [capacity] entries (48 MiB,
   above a 30 s run's replies) so the benchmark's own peak RSS, which
   peak_rss_mb also reads, does not rise and fall with throughput. *)
let capacity = 1 lsl 21

let new_run seq =
  { seq; replies = Array.make (Array.length seq) None; ks = Array.make capacity 0;
    lat_us = Array.make capacity 0.0; interval = Array.make capacity 0; n = 0; errors = 0;
    repeats_differ = []; probes = [] }

let record r k ~lat_ns ~interval res =
  match res with
  | Error _ -> r.errors <- r.errors + 1
  | Ok resp ->
    let pos = k mod Array.length r.seq and resp = keep resp in
    (match r.replies.(pos) with
    | None -> r.replies.(pos) <- Some resp
    | Some prev -> if prev <> resp then r.repeats_differ <- pos :: r.repeats_differ);
    if r.n = Array.length r.ks then begin
      r.ks <- Array.append r.ks (Array.make r.n 0);
      r.lat_us <- Array.append r.lat_us (Array.make r.n 0.0);
      r.interval <- Array.append r.interval (Array.make r.n 0)
    end;
    r.ks.(r.n) <- k;
    r.lat_us.(r.n) <- us_of_ns lat_ns;
    r.interval.(r.n) <- interval;
    r.n <- r.n + 1

(* Seconds between two calibration kernel runs in a closed loop. *)
let probe_every = 0.1

let probe r =
  let t0 = Clock.now_ns () in
  let s = Calib.probe () in
  r.probes <- (t0, Clock.now_ns (), s) :: r.probes

(* Closed loop at depth 1: send sequence position [k] (modulo its
   length), wait for the reply, record it and go on with [k + 1], until
   the monotonic time [deadline_ns]. Every [probe_every] seconds it calls
   [between i] (the [i]th stop) and runs the calibration kernel, and
   runs it once more at the end. *)
let drive r ~call ~deadline_ns ~between =
  let len = Array.length r.seq in
  let every = Int64.of_float (probe_every *. 1e9) in
  let rec loop k stops next =
    let now = Clock.now_ns () in
    if now < deadline_ns then begin
      let stops, next =
        if now < next then (stops, next)
        else begin
          between stops;
          probe r;
          (stops + 1, Int64.add (Clock.now_ns ()) every)
        end
      in
      let t0 = Clock.now_ns () in
      let res = call k r.seq.(k mod len) in
      record r k ~lat_ns:(Int64.sub (Clock.now_ns ()) t0) ~interval:(stops - 1) res;
      loop (k + 1) stops next
    end
  in
  loop 0 0 0L;
  probe r

(* Check every kept reply with [ok pos req resp]; a wrong one raises. *)
let verify r ok =
  check (r.repeats_differ = []) "position %d answered differently when repeated"
    (match r.repeats_differ with p :: _ -> p | [] -> -1);
  Array.iteri
    (fun pos reply ->
      match reply with
      | None -> ()
      | Some resp ->
        check (ok pos r.seq.(pos) resp) "reply to request %d differs from the local answer" pos)
    r.replies

(* The run in reference seconds (Calib): interval [i] lies between
   kernel runs [i] and [i + 1], and its slowdown is their mean over
   [Calib.reference_s]. *)
type calibrated = {
  ref_s : float;           (** the intervals' summed length, reference seconds *)
  slowdowns : float array; (** per interval *)
}

let calibrate r =
  let probes = Array.of_list (List.rev r.probes) in
  let slowdowns =
    Array.init (Array.length probes - 1) (fun i ->
        let _, _, a = probes.(i) and _, _, b = probes.(i + 1) in
        (a +. b) /. 2.0 /. Calib.reference_s)
  in
  let ref_s =
    Array.fold_left ( +. ) 0.0
      (Array.mapi
         (fun i sd ->
           let _, e, _ = probes.(i) and s, _, _ = probes.(i + 1) in
           Int64.to_float (Int64.sub s e) *. 1e-9 /. sd)
         slowdowns)
  in
  { ref_s; slowdowns }

(* Latencies (us, reference) of the replies whose request satisfies
   [cls]. *)
let latencies r c cls =
  let len = Array.length r.seq in
  let out = ref [] in
  for i = r.n - 1 downto 0 do
    if cls r.seq.(r.ks.(i) mod len) then
      out := (r.lat_us.(i) /. c.slowdowns.(r.interval.(i))) :: !out
  done;
  Array.of_list !out

(* The [pct] percentile of the replies whose request satisfies [cls]
   (us, reference), per window of [stops] intervals, and its lower
   quartile over the windows. Interference from other tenants (the
   server preempted in mid-request, which the kernel runs between
   intervals do not see) comes in bursts and raises the tails of the
   windows it covers, of a half or more of them in some runs; a change
   to the program moves the tail of every window. Every window must put
   10 samples beyond its percentile (Stat.tail); a last, partial window
   is left out. *)
let window_tail r c cls ~what ~pct ~stops =
  let len = Array.length r.seq in
  let windows = Array.length c.slowdowns / stops in
  if windows = 0 then raise (Stat.Under_sampled (what ^ ": the run is shorter than one window"));
  let members = Array.make windows [] in
  for i = r.n - 1 downto 0 do
    let w = r.interval.(i) / stops in
    if w < windows && cls r.seq.(r.ks.(i) mod len) then
      members.(w) <- (r.lat_us.(i) /. c.slowdowns.(r.interval.(i))) :: members.(w)
  done;
  let tails = Array.map (fun l -> Stat.tail ~what ~pct (Array.of_list l)) members in
  Umrs_bench.Quantile.(value (of_array tails) 25.0)

let stats_diff (a : W.server_stats) (b : W.server_stats) =
  [ metric "server.queue_hwm" (float_of_int b.W.st_queue_hwm);
    metric "server.loop_wakeups_per_request"
      (float_of_int (b.W.st_loop_wakeups - a.W.st_loop_wakeups)
       /. float_of_int (max 1 (b.W.st_requests - a.W.st_requests)));
    metric "server.overloaded" (float_of_int (b.W.st_overloaded - a.W.st_overloaded));
    metric "server.timeouts" (float_of_int (b.W.st_timeouts - a.W.st_timeouts));
    metric "server.rejected" (float_of_int (b.W.st_rejected - a.W.st_rejected)) ]

let sum_stats (l : W.server_stats list) =
  match l with
  | [] -> invalid_arg "sum_stats"
  | s :: rest ->
    List.fold_left
      (fun (acc : W.server_stats) (x : W.server_stats) ->
        { acc with
          W.st_requests = acc.W.st_requests + x.W.st_requests;
          st_overloaded = acc.W.st_overloaded + x.W.st_overloaded;
          st_timeouts = acc.W.st_timeouts + x.W.st_timeouts;
          st_rejected = acc.W.st_rejected + x.W.st_rejected;
          st_loop_wakeups = acc.W.st_loop_wakeups + x.W.st_loop_wakeups;
          st_queue_hwm = max acc.W.st_queue_hwm x.W.st_queue_hwm })
      s rest

let stats addr =
  match C.connect addr with
  | Error e -> failwith ("stats connect: " ^ C.error_to_string e)
  | Ok c ->
    Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
    match C.stats c with
    | Ok s -> s
    | Error e -> failwith ("stats: " ^ C.error_to_string e)

(* Mean ns of a Wire request round trip (encode + decode) and of an
   outcome round trip, over the requests and kept replies of a run. *)
let wire_costs r =
  let len = Array.length r.seq in
  let replies = Array.to_list r.replies |> List.filter_map Fun.id in
  let mean_ns n f =
    let _, s = Clock.time f in
    s *. 1e9 /. float_of_int (max 1 n)
  in
  let req_ns =
    mean_ns r.n (fun () ->
        for i = 0 to r.n - 1 do
          let k = r.ks.(i) in
          ignore (W.decode_request (W.encode_request ~id:k ~deadline_ms:0 r.seq.(k mod len)))
        done)
  in
  let out_ns =
    mean_ns (List.length replies) (fun () ->
        List.iter (fun x -> ignore (W.decode_outcome (W.encode_outcome ~id:1 (W.Reply x)))) replies)
  in
  [ metric "server.wire.request_ns" req_ns; metric "server.wire.outcome_ns" out_ns ]
