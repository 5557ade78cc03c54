type value = Int of int | Float of float | Str of string | Bool of bool

(* Atomic: worker domains bump the same counter concurrently, and a
   plain [c_value <- c_value + n] loses increments under OCaml 5. *)
type counter = { c_name : string; c_value : int Atomic.t }
type gauge = { g_name : string; mutable g_value : float }

type sink = { oc : out_channel; opened_at : float }

let sink : sink option ref = ref None
let lock = Mutex.create ()
let counters : counter list ref = ref []
let gauges : gauge list ref = ref []
let epoch = ref nan

let enabled () = !sink <> None

let now () =
  let base =
    match !sink with
    | Some s -> s.opened_at
    | None ->
      if Float.is_nan !epoch then epoch := Unix.gettimeofday ();
      !epoch
  in
  Unix.gettimeofday () -. base

(* Minimal JSON string escaping: quotes, backslashes, control bytes.
   Event names and field keys are code-controlled identifiers; values
   may carry arbitrary strings (graph names, paths). *)
let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

let add_value buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.9g" f)
    else Buffer.add_string buf "null"
  | Str s ->
    Buffer.add_char buf '"';
    escape buf s;
    Buffer.add_char buf '"'
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")

let emit name fields =
  match !sink with
  | None -> ()
  | Some s ->
    let buf = Buffer.create 128 in
    Buffer.add_string buf (Printf.sprintf "{\"ts\": %.6f, \"event\": \"" (now ()));
    escape buf name;
    Buffer.add_string buf "\", \"fields\": {";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ", ";
        Buffer.add_char buf '"';
        escape buf k;
        Buffer.add_string buf "\": ";
        add_value buf v)
      fields;
    Buffer.add_string buf "}}\n";
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () -> Buffer.output_buffer s.oc buf)

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
  sink := Some { oc; opened_at = Unix.gettimeofday () }

let with_file path f =
  open_file path;
  Fun.protect ~finally:close f

let span name f =
  if enabled () then begin
    let t0 = Unix.gettimeofday () in
    let finished = ref false in
    Fun.protect
      ~finally:(fun () ->
        emit name
          [ ("seconds", Float (Unix.gettimeofday () -. t0));
            ("ok", Bool !finished) ])
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
