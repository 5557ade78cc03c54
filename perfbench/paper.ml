(* paper-pipeline: the paper's own computation, no socket opened.

   Primary stage: Builder.build of dM(3,4,3) at the default domain
   count (531,441 raw matrices -> 58 classes, corpus written and
   indexed). Secondary stage: Theorem-1 instances, each
   Reconstruct.run_sampled with one seeded (4,8,8) sample and
   Table_scheme: G(M) -> forced-port verify -> tables -> reconstruct ->
   canonical. Canonicalization is nearly all of it, so a change there
   shows here and on no other workload. *)

open Umrs_core
open Common
module Clock = Umrs_bench.Clock

let p, q, d = (3, 4, 3)
let raw_total = 531_441
let tp, tq, td = (4, 8, 8)

(* Instances take tens of ms, so a run times ~10^2 of them: the tail
   read is p90, over 100 instances so 10 lie beyond it. *)
let tail_pct = 90.0
let instances = 100

(* Generating the inputs takes about a millisecond, so set-up is
   repeated this many times and its median reported. *)
let setup_reps = 15

type inputs = {
  states : Random.State.t array;  (** instance [i] runs on a copy of [states.(i)] *)
  matrices : Matrix.t array;      (** the (4,8,8) matrix instance [i] draws *)
  classes : int;
}

let make_inputs ctx =
  let states = Array.init instances (fun i -> Random.State.make [| ctx.seed; 0x7481; i |]) in
  let matrices =
    Array.map
      (fun st ->
        let raw = Orbit.random_raw (Random.State.copy st) ~p:tp ~q:tq ~d:td in
        (* rows normalized, as run_sampled does before building G(M) *)
        Matrix.create
          (Array.init tp (fun i ->
               Canonical.normalize_row (Array.init tq (fun j -> Matrix.get raw i j)))))
      states
  in
  match Bignat.to_int_opt (Count.full_exact ~p ~q ~d) with
  | Some classes -> { states; matrices; classes }
  | None -> failwith "Count.full_exact (3,4,3) does not fit an int"

(* One Builder.build + index of dM(3,4,3), checked against the
   closed-form class count. *)
let enumerate_once ~out inputs =
  let o =
    Trace.span "store.builder.build" (fun () -> Umrs_store.Builder.build ~p ~q ~d ~out ())
  in
  let meta = Trace.span "store.index.build" (fun () -> Umrs_store.Query.build ~corpus:out ()) in
  check (o.Umrs_store.Builder.o_total = raw_total) "builder covered %d raw matrices"
    o.Umrs_store.Builder.o_total;
  check (o.Umrs_store.Builder.o_classes = inputs.classes)
    "builder found %d classes, Count.full_exact says %d" o.Umrs_store.Builder.o_classes
    inputs.classes;
  match meta with
  | Ok m ->
    check (m.Umrs_store.Query.x_count = inputs.classes) "index covers %d records"
      m.Umrs_store.Query.x_count
  | Error e -> check false "index build: %s" (Umrs_store.Query.error_to_string e)

let verify_corpus ~out inputs =
  let v = Umrs_store.Corpus.verify ~path:out in
  check (v.Umrs_store.Corpus.v_problems = []) "Corpus.verify: %s"
    (String.concat "; " v.Umrs_store.Corpus.v_problems);
  check (v.Umrs_store.Corpus.v_records_read = inputs.classes) "Corpus.verify read %d records"
    v.Umrs_store.Corpus.v_records_read

let check_instance i ~forced ~recovered =
  check forced "Theorem-1 instance %d: a port is not forced below stretch 2" i;
  check recovered "Theorem-1 instance %d: reconstruction differs from canonical(M)" i

(* Theorem-1 instance [i] as a user runs it: Reconstruct.run_sampled
   with one sample, on the instance's seeded state. *)
let sampled inputs i =
  let s =
    Reconstruct.run_sampled (Random.State.copy inputs.states.(i)) ~samples:1 ~p:tp ~q:tq
      ~d:td ~scheme:Umrs_routing.Table_scheme.build ()
  in
  check_instance i ~forced:s.Reconstruct.s_all_forced ~recovered:s.Reconstruct.s_all_recovered

(* The same steps as [sampled], with a span around each library call:
   the traced run's view inside run_sampled. *)
let spanned inputs i =
  let m = inputs.matrices.(i) in
  Trace.span "paper.thm1" @@ fun () ->
  let t = Trace.span "core.cgraph" (fun () -> Cgraph.of_matrix m) in
  let forced =
    Trace.span "core.verify" (fun () -> Verify.check_cgraph t ~bound:Verify.below_two)
  in
  let built =
    Trace.span "routing.tables" (fun () -> Umrs_routing.Table_scheme.build t.Cgraph.graph)
  in
  let raw =
    Trace.span "core.reconstruct" (fun () ->
        Reconstruct.from_routing t built.Umrs_routing.Scheme.rf)
  in
  let recovered = Trace.span "core.canonical" (fun () -> Canonical.canonical raw) in
  let expected = Trace.span "core.canonical" (fun () -> Canonical.canonical m) in
  check_instance i ~forced:(Result.is_ok forced) ~recovered:(Matrix.equal recovered expected)

type measured = {
  builds : int;
  passes : int;
  enum_s : float;            (** median Builder.build + index, reference seconds *)
  instance_s : float array;  (** per instance, the median of its runs *)
  canonical_s : float array; (** per instance, the median of its direct canonicalizations *)
  slowdown : float;          (** median over every timed unit (see Calib) *)
  windows : (int64 * int64) list;
}

(* A third of the budget repeats Builder.build + index, each build on
   the next CPU in turn; the rest repeats passes over the instances, each
   pass on the next CPU, in which every instance runs [instance i] and
   then Canonical.canonical on its matrix. At least [min_rounds] builds
   and passes run. Every unit is timed in reference seconds (Calib) and
   reported as the median of its runs. *)
let measure ctx inputs ~budget ~instance =
  let out = Filename.concat ctx.work "paper-343.umrs" in
  let windows = ref [] and slowdowns = ref [] in
  let timed f =
    let r, t = Calib.time f in
    slowdowns := t.Calib.slowdown :: !slowdowns;
    (r, t.Calib.ref_s)
  in
  let repeat share f =
    let t0 = Clock.now_ns () and r = ref 0 in
    while !r < min_rounds || Clock.since_s t0 < share *. budget do
      Cpu.pin (Cpu.of_round !r);
      let (), w = timed_phase (fun () -> f !r) in
      windows := w :: !windows;
      incr r
    done;
    !r
  in
  let enum_s = ref [] in
  let builds =
    repeat (1.0 /. 3.0) (fun _ ->
        let (), s = timed (fun () -> enumerate_once ~out inputs) in
        enum_s := s :: !enum_s)
  in
  let inst = Array.make instances [] and canon = Array.make instances [] in
  let forms = Array.make instances None in
  let passes =
    repeat (2.0 /. 3.0) (fun _ ->
        Array.iteri
          (fun i m ->
            let (), s = timed (fun () -> instance inputs i) in
            inst.(i) <- s :: inst.(i);
            let c, s =
              timed (fun () -> Trace.span "core.canonical" (fun () -> Canonical.canonical m))
            in
            canon.(i) <- s :: canon.(i);
            match forms.(i) with
            | None -> forms.(i) <- Some c
            | Some c0 -> check (Matrix.equal c c0) "canonical form of instance %d changed" i)
          inputs.matrices)
  in
  verify_corpus ~out inputs;
  Array.iteri
    (fun i c ->
      check (Canonical.is_canonical (Option.get c)) "Canonical.canonical of instance %d is not canonical" i)
    forms;
  let median l = Stat.median (Array.of_list l) in
  { builds; passes; enum_s = median !enum_s; instance_s = Array.map median inst;
    canonical_s = Array.map median canon; slowdown = median !slowdowns; windows = !windows }

let e2e ctx =
  let inputs = ref None in
  let setup_s, setup_times =
    median_of_reps setup_reps (fun () -> inputs := Some (make_inputs ctx))
  in
  let inputs = Option.get !inputs in
  let m = measure ctx inputs ~budget:ctx.seconds ~instance:sampled in
  let lat = us_of_s m.instance_s and canon = us_of_s m.canonical_s in
  let verified = m.builds + (m.passes * 2 * instances) in
  print_slowdown m.slowdown;
  { attempted = verified; failed = 0;
    metrics =
      [ metric "setup_s" setup_s ~samples:(Array.length setup_times)
          ~what:"generate seeded (4,8,8) inputs and the expected class count";
        metric "peak_rss_mb" (Stat.peak_rss_mib ~children:[]) ~what:"benchmark process";
        metric "success_frac" 1.0 ~samples:verified
          ~what:"verified corpus builds, Theorem-1 instances and canonical forms / attempted";
        metric "primary_per_s" (float_of_int raw_total /. m.enum_s) ~samples:m.builds
          ~what:"raw (3,4,3) matrices/s through Builder.build + index, median build";
        metric "secondary_per_s"
          (float_of_int instances /. Array.fold_left ( +. ) 0.0 m.instance_s)
          ~samples:instances ~what:"Theorem-1 (4,8,8) instances/s through run_sampled, each its median";
        metric "light_p50_us" (Stat.median canon) ~samples:instances
          ~what:"Canonical.canonical of an instance's matrix, each its median";
        metric "light_tail_us" (Stat.tail ~what:"canonical" ~pct:tail_pct canon)
          ~samples:instances ~what:"the same, p90";
        metric "heavy_p50_us" (Stat.median lat) ~samples:instances
          ~what:"one Theorem-1 instance (run_sampled, 1 sample), each its median";
        metric "heavy_tail_us" (Stat.tail ~what:"instance" ~pct:tail_pct lat)
          ~samples:instances ~what:"the same, p90" ] }

let traced ctx =
  let inputs = make_inputs ctx in
  let budget = ctx.seconds /. 2.0 in
  let u = measure ctx inputs ~budget ~instance:spanned in
  Trace.enabled := true;
  let t = measure ctx inputs ~budget ~instance:spanned in
  let sum = Array.fold_left ( +. ) 0.0 in
  let work m = m.enum_s +. sum m.instance_s +. sum m.canonical_s in
  let overhead = (work t /. work u) -. 1.0 in
  let coverage = coverage (Trace.spans ()) t.windows in
  (* layer replays, outside the covered windows, free to use every CPU *)
  Cpu.unpin ();
  let set =
    Trace.span "core.enumerate" (fun () -> Enumerate.canonical_set ~domains:1 ~p ~q ~d ())
  in
  let _, two = Clock.time (fun () -> Enumerate.canonical_set ~domains:2 ~p ~q ~d ()) in
  let copy = Filename.concat ctx.work "paper-343-copy.umrs" in
  ignore
    (Trace.span "store.corpus.write" (fun () ->
         Umrs_store.Corpus.write_list ~path:copy ~variant:Canonical.Full ~p ~q ~d set));
  check (List.length set = inputs.classes) "canonical_set found %d classes" (List.length set);
  let spans = Trace.spans () in
  let aggs = Trace.aggregate spans in
  let one = self_s aggs "core.enumerate" in
  (* totals over the traced run, per pass over the instances or per
     build *)
  let per_pass x = x /. float_of_int t.passes and per_build x = x /. float_of_int t.builds in
  ( { attempted = u.builds + t.builds + ((u.passes + t.passes) * 2 * instances); failed = 0;
      metrics =
        [ metric "core.enumerate.raw_per_s" (float_of_int raw_total /. one);
          metric "core.enumerate.classes_per_raw"
            (float_of_int inputs.classes /. float_of_int raw_total);
          metric "core.canonical.calls" (per_pass (float_of_int (calls aggs "core.canonical")))
            ~what:"per pass over the 100 instances";
          metric "core.canonical.self_s" (per_pass (self_s aggs "core.canonical"))
            ~what:"per pass over the 100 instances";
          metric "core.cgraph.self_s" (per_pass (self_s aggs "core.cgraph"))
            ~what:"per pass over the 100 instances";
          metric "core.verify.self_s" (per_pass (self_s aggs "core.verify"))
            ~what:"per pass over the 100 instances";
          metric "core.reconstruct.self_s" (per_pass (self_s aggs "core.reconstruct"))
            ~what:"per pass over the 100 instances";
          metric "store.corpus.write_s" (self_s aggs "store.corpus.write");
          metric "store.corpus.bytes" (float_of_int (Unix.stat copy).Unix.st_size);
          metric "store.index.build_s" (per_build (self_s aggs "store.index.build"))
            ~what:"per build";
          metric "graph.parallel.enum_efficiency" (one /. (2.0 *. two))
            ~what:"canonical_set rate at 2 domains / (2 x rate at 1), unpinned";
          metric "trace.coverage" coverage;
          metric "trace.overhead_frac" overhead ] },
    spans )
