let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

(* Run the inline worker and join every spawned domain, even when one
   of them raises — leaking an unjoined domain would let it keep
   writing to shared state after the caller has started cleaning up.
   The first exception seen (inline worker first, then joins in spawn
   order) is re-raised once all domains have stopped. *)
let run_joining worker0 handles =
  let first = ref None in
  let note e = if !first = None then first := Some e in
  (try worker0 () with e -> note e);
  List.iter (fun h -> try Domain.join h with e -> note e) handles;
  match !first with Some e -> raise e | None -> ()

let map_range ?domains n f =
  if n < 0 then invalid_arg "Parallel.map_range";
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  if n < 2 || domains <= 1 then Array.init n f
  else begin
    let domains = min domains n in
    let results = Array.make n None in
    let chunk = (n + domains - 1) / domains in
    let worker d () =
      let lo = d * chunk in
      let hi = min n (lo + chunk) - 1 in
      for i = lo to hi do
        results.(i) <- Some (f i)
      done
    in
    let handles =
      List.init (domains - 1) (fun d -> Domain.spawn (worker (d + 1)))
    in
    run_joining (worker 0) handles;
    Array.map
      (function Some x -> x | None -> invalid_arg "Parallel: missing result")
      results
  end

let chunks ~domains n =
  if n < 0 then invalid_arg "Parallel.chunks";
  if n = 0 then [||]
  else begin
    let domains = max 1 (min domains n) in
    let chunk = (n + domains - 1) / domains in
    Array.init domains (fun d -> (d * chunk, min n ((d + 1) * chunk)))
  end

let map_ranges ?domains n f =
  if n < 0 then invalid_arg "Parallel.map_ranges";
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  if n = 0 then [||]
  else if domains <= 1 then [| f ~lo:0 ~hi:n |]
  else begin
    let ranges = chunks ~domains n in
    let k = Array.length ranges in
    let results = Array.make k None in
    let worker i () =
      let lo, hi = ranges.(i) in
      results.(i) <- Some (f ~lo ~hi)
    in
    let handles = List.init (k - 1) (fun i -> Domain.spawn (worker (i + 1))) in
    run_joining (worker 0) handles;
    Array.map
      (function Some x -> x | None -> invalid_arg "Parallel: missing result")
      results
  end

let map_range_with ?domains ~init ?(finally = fun _ -> ()) n f =
  if n < 0 then invalid_arg "Parallel.map_range_with";
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  if n = 0 then [||]
  else begin
    let run_chunk (lo, hi) =
      let s = init () in
      Fun.protect
        ~finally:(fun () -> finally s)
        (fun () -> Array.init (hi - lo) (fun i -> f s (lo + i)))
    in
    let per_chunk =
      if domains <= 1 then [| run_chunk (0, n) |]
      else begin
        let ranges = chunks ~domains n in
        let k = Array.length ranges in
        let results = Array.make k None in
        let worker i () = results.(i) <- Some (run_chunk ranges.(i)) in
        let handles =
          List.init (k - 1) (fun i -> Domain.spawn (worker (i + 1)))
        in
        run_joining (worker 0) handles;
        Array.map
          (function Some x -> x | None -> invalid_arg "Parallel: missing result")
          results
      end
    in
    Array.concat (Array.to_list per_chunk)
  end

let all_pairs ?domains g =
  map_range_with ?domains ~init:Bfs.workspace (Graph.order g) (fun ws src ->
      Bfs.distances_with ws g src)
