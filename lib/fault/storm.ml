(* Fault-schedule load driver ("storm").

   Runs one live server per level and drives it with resilient clients
   while a seeded fault plan perturbs both sides of every socket and
   the worker pool. The accounting rule is the serving layer's core
   promise under fire: every well-formed request must come back as
   some answer - a reply, a server verdict, or a client-side transport
   error after retries - never silently vanish. The driver classifies
   each call:

   - success:  Ok with a well-shaped payload and no retry/reconnect;
   - degraded: answered, but only after retries/reconnects, or
     answered with a server verdict (Rejected includes requests whose
     worker was killed by an injected handler exception);
   - failed:   transport gave up after retries (or the breaker fast-
     failed). Failures are reported, not fatal - the fatal conditions
     are a hang, a malformed reply, or a dead server afterwards.

   Recovery latency is sampled from degraded calls that needed
   retries: the elapsed time until the answer finally landed. *)

module Fault = Umrs_fault.Fault
module Wire = Umrs_server.Wire
module Server = Umrs_server.Server
module C = Umrs_client
module Clock = Umrs_bench.Clock
module Quantile = Umrs_bench.Quantile

type level = {
  l_intensity : float;
  l_requests : int;
  l_success : int;
  l_degraded : int;
  l_failed : int;
  l_worker_crashes : int;
  l_breaker_opens : int;
  l_breaker_fastfails : int;
  l_recovery_p50 : float;
  l_recovery_p95 : float;
  l_seconds : float;
}

let request ~records i =
  match i mod 7 with
  | 0 -> Wire.Ping i
  | 1 | 2 -> Wire.Nth (i mod records)
  | 3 -> Wire.Range_prefix [||]
  | 4 -> Wire.Cgraph_of (i mod records)
  | 5 -> Wire.Corpus_info
  | _ -> Wire.Sleep_ms 1

let shape_ok req resp =
  match (req, resp) with
  | Wire.Ping n, Wire.R_pong m -> n = m
  | Wire.Corpus_info, Wire.R_header _ -> true
  | Wire.Nth _, Wire.R_matrix _ -> true
  | Wire.Range_prefix _, Wire.R_range _ -> true
  | Wire.Cgraph_of _, Wire.R_graph _ -> true
  | Wire.Sleep_ms _, Wire.R_slept _ -> true
  | _ -> false

let storm_policy =
  { C.Robust.default_policy with
    connect_retries = 5;
    call_retries = 2;
    base_backoff = 0.005;
    max_backoff = 0.05;
    max_total_wait = 2.0;
    breaker_cooldown = 0.05;
    recv_timeout = 1.0 }

let run_level ?(seed = 0x5EED42) ?(requests = 300) ?(conns = 2) ?(workers = 2)
    ?(queue_capacity = 64) ~intensity ~corpus ~addr () =
  let records = (Umrs_store.Corpus.info ~path:corpus).Umrs_store.Corpus.count in
  if records = 0 then Error "storm: empty corpus"
  else
    let cfg =
      { (Server.default_config addr) with
        Server.corpus = Some corpus; workers; queue_capacity }
    in
    match Server.start cfg with
    | Error e -> Error (Printf.sprintf "server start: %s" e)
    | Ok srv ->
      let addr = Server.addr srv in
      let pool =
        Array.init conns (fun i ->
            C.Robust.create ~policy:storm_policy
              ~rng:(Random.State.make [| 0x570A; seed; i |])
              addr)
      in
      let success = ref 0 and degraded = ref 0 and failed = ref 0 in
      let samples = ref [] in
      let drive () =
        for i = 0 to requests - 1 do
          let conn = pool.(i mod conns) in
          let req = request ~records i in
          let before = C.Robust.stats conn in
          let t0 = Clock.now_ns () in
          match C.Robust.call conn ~deadline_ms:2000 req with
          | Ok resp ->
            let after = C.Robust.stats conn in
            let retried =
              after.C.Robust.retries > before.C.Robust.retries
              || after.C.Robust.reconnects > before.C.Robust.reconnects
            in
            if not (shape_ok req resp) then incr failed
            else if retried then begin
              incr degraded;
              samples := Clock.since_s t0 :: !samples
            end
            else incr success
          | Error (C.Refused _ | C.Overloaded | C.Timed_out) -> incr degraded
          | Error (C.Io _ | C.Protocol _) -> incr failed
        done
      in
      let stormed, seconds =
        Clock.time (fun () ->
            Fault.with_plan (Fault.seeded ~seed ~intensity ()) drive)
      in
      let opens, fastfails =
        Array.fold_left
          (fun (o, f) conn ->
            let s = C.Robust.stats conn in
            (o + s.C.Robust.breaker_opens, f + s.C.Robust.breaker_fastfails))
          (0, 0) pool
      in
      Array.iter C.Robust.close pool;
      (* faults are off now: the pool must have been restored and the
         server must answer a plain client first try *)
      let probe =
        match C.connect ~retries:5 addr with
        | Error e -> Error ("post-storm connect: " ^ C.error_to_string e)
        | Ok c -> (
          Fun.protect ~finally:(fun () -> C.close c) @@ fun () ->
          match C.ping c with
          | Error e -> Error ("post-storm ping: " ^ C.error_to_string e)
          | Ok () -> (
            match C.nth c 0 with
            | Error e -> Error ("post-storm nth: " ^ C.error_to_string e)
            | Ok _ -> Ok ()))
      in
      let crashes = Server.worker_crashes srv in
      Server.shutdown srv;
      Server.wait srv;
      match (stormed.Fault.outcome, probe) with
      | Error (), _ -> Error "storm crashed (seeded plans never crash)"
      | _, Error e -> Error e
      | Ok (), Ok () ->
        let recovery p =
          match !samples with
          | [] -> 0.0
          | s -> Quantile.value (Quantile.of_list s) p
        in
        Ok
          { l_intensity = intensity;
            l_requests = requests;
            l_success = !success;
            l_degraded = !degraded;
            l_failed = !failed;
            l_worker_crashes = crashes;
            l_breaker_opens = opens;
            l_breaker_fastfails = fastfails;
            l_recovery_p50 = recovery 50.;
            l_recovery_p95 = recovery 95.;
            l_seconds = seconds }
