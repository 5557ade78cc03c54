module Clock = Umrs_bench.Clock
module Json = Umrs_bench.Json

type value = Int of int | Float of float | Str of string | Bool of bool

(* Atomic: worker domains bump the same counter concurrently, and a
   plain [c_value <- c_value + n] loses increments under OCaml 5. *)
type counter = { c_name : string; c_value : int Atomic.t }
type gauge = { g_name : string; mutable g_value : float }

type sink = { oc : out_channel; opened_at : int64 }

let sink : sink option ref = ref None
let lock = Mutex.create ()
let counters : counter list ref = ref []
let gauges : gauge list ref = ref []

(* Read at initialisation, not through [lazy]: in OCaml 5 two domains
   forcing one lazy value at once raise. *)
let epoch = Clock.now_ns ()

let enabled () = !sink <> None

let now () =
  Clock.since_s (match !sink with Some s -> s.opened_at | None -> epoch)

let json_of_value = function
  | Int i -> Json.Num (float_of_int i)
  | Float f -> Json.Num f
  | Str s -> Json.Str s
  | Bool b -> Json.Bool b

let emit name fields =
  match !sink with
  | None -> ()
  | Some s ->
    let line =
      Json.to_string ~indent:0
        (Json.Obj
           [ ("ts", Json.Num (now ())); ("event", Json.Str name);
             ("fields",
              Json.Obj (List.map (fun (k, v) -> (k, json_of_value v)) fields))
           ])
    in
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        output_string s.oc line;
        output_char s.oc '\n')

let counter name =
  match List.find_opt (fun c -> c.c_name = name) !counters with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = Atomic.make 0 } in
    counters := c :: !counters;
    c

let add c n = ignore (Atomic.fetch_and_add c.c_value n)
let counter_value c = Atomic.get c.c_value

let gauge name =
  match List.find_opt (fun g -> g.g_name = name) !gauges with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_value = 0.0 } in
    gauges := g :: !gauges;
    g

let set_gauge g v = g.g_value <- v
let gauge_value g = g.g_value

let flush_metrics () =
  if enabled () then begin
    let fields =
      List.rev_map (fun c -> (c.c_name, Int (counter_value c))) !counters
      @ List.rev_map (fun g -> (g.g_name, Float g.g_value)) !gauges
    in
    if fields <> [] then emit "metrics" fields
  end

let flush () =
  match !sink with
  | None -> ()
  | Some s ->
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () -> flush s.oc)

let close () =
  match !sink with
  | None -> ()
  | Some s ->
    flush_metrics ();
    sink := None;
    close_out s.oc

let open_file path =
  close ();
  let oc = open_out path in
  sink := Some { oc; opened_at = Clock.now_ns () }

let with_file path f =
  open_file path;
  Fun.protect ~finally:close f

let span name f =
  if enabled () then begin
    let t0 = Clock.now_ns () in
    let finished = ref false in
    Fun.protect
      ~finally:(fun () ->
        emit name
          [ ("seconds", Float (Clock.since_s t0)); ("ok", Bool !finished) ])
      (fun () ->
        let x = f () in
        finished := true;
        x)
  end
  else f ()

let reset_for_tests () =
  close ();
  counters := [];
  gauges := []
