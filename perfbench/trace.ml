(* In-memory spans recorded by the benchmark around its calls into the
   library, so a traced run can split wall time by layer.

   Recording is off by default; [span] then only runs its body. When on,
   each span keeps its name, monotonic start and end, the span that was
   open on the same thread when it started (its parent), and a request
   id (-1 outside the serving workloads). Spans stay in memory until
   [write_jsonl] dumps them at exit. *)

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span *)
  name : string;
  req : int;     (** request id on serving workloads, else -1 *)
  t0 : int64;    (** CLOCK_MONOTONIC ns *)
  t1 : int64;
}

let enabled = ref false
let lock = Mutex.create ()
let recorded : span list ref = ref []
let next_id = ref 0
let open_spans : (int, int list) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset () =
  locked (fun () ->
      recorded := [];
      next_id := 0;
      Hashtbl.reset open_spans)

let spans () = locked (fun () -> List.rev !recorded)

let span ?(req = -1) name f =
  if not !enabled then f ()
  else begin
    let tid = Thread.id (Thread.self ()) in
    let id, parent =
      locked (fun () ->
          let id = !next_id in
          incr next_id;
          let stack = Option.value ~default:[] (Hashtbl.find_opt open_spans tid) in
          Hashtbl.replace open_spans tid (id :: stack);
          (id, match stack with p :: _ -> p | [] -> -1))
    in
    let t0 = Umrs_bench.Clock.now_ns () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Umrs_bench.Clock.now_ns () in
        locked (fun () ->
            (match Hashtbl.find_opt open_spans tid with
            | Some (_ :: rest) -> Hashtbl.replace open_spans tid rest
            | _ -> ());
            recorded := { id; parent; name; req; t0; t1 } :: !recorded))
  end

let duration_s s = Int64.to_float (Int64.sub s.t1 s.t0) *. 1e-9

(* Total length of the union of [(t0, t1)] intervals, in seconds. *)
let union_s intervals =
  let sorted = List.sort compare intervals in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, max cb b))
        | Some (ca, cb) -> (Int64.add total (Int64.sub cb ca), Some (a, b)))
      (0L, None) sorted
  in
  let total =
    match last with None -> total | Some (a, b) -> Int64.add total (Int64.sub b a)
  in
  Int64.to_float total *. 1e-9

(* A span's self time: its duration minus the part of it that its
   children cover. Returned per span id. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          ((s.t0, s.t1) :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  let self = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let kids =
        Option.value ~default:[] (Hashtbl.find_opt children s.id)
        |> List.map (fun (a, b) -> (max a s.t0, min b s.t1))
        |> List.filter (fun (a, b) -> b > a)
      in
      Hashtbl.replace self s.id (duration_s s -. union_s kids))
    spans;
  self

type agg = { calls : int; self_s : float; durations_s : float list }

(* Per span name: call count, summed self time and every duration. *)
let aggregate spans =
  let self = self_times spans in
  let by_name = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let a =
        Option.value ~default:{ calls = 0; self_s = 0.0; durations_s = [] }
          (Hashtbl.find_opt by_name s.name)
      in
      Hashtbl.replace by_name s.name
        { calls = a.calls + 1; self_s = a.self_s +. Hashtbl.find self s.id;
          durations_s = duration_s s :: a.durations_s })
    spans;
  by_name

(* Seconds covered by the union of top-level spans. *)
let top_level_s spans =
  union_s (List.filter_map (fun s -> if s.parent < 0 then Some (s.t0, s.t1) else None) spans)

let write_jsonl path spans =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"req\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
        s.id s.parent s.name s.req s.t0 s.t1)
    spans
