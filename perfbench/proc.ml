(* Server child processes: start, probe for readiness, stop.

   Children are started exactly as an operator would start them
   ([routing_lab serve ...]), with stdout and stderr sent to a log file
   so the benchmark's own stdout stays a clean report. Every child is
   remembered until it has been reaped, and an [at_exit] hook stops any
   that an exception left behind. *)

let live : int list ref = ref []

let spawn ~log prog args =
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close fd; Unix.close null)
      (fun () -> Unix.create_process prog (Array.of_list (prog :: args)) null fd fd)
  in
  live := pid :: !live;
  pid

let rec waitpid_nointr flags pid =
  try Unix.waitpid flags pid
  with Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_nointr flags pid

(* SIGTERM, wait up to [grace] seconds for the drain, then SIGKILL.
   Returns once the child is reaped. *)
let stop ?(grace = 20.0) pid =
  if List.mem pid !live then begin
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = Unix.gettimeofday () +. grace in
    let rec wait () =
      match waitpid_nointr [ Unix.WNOHANG ] pid with
      | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.01;
        wait ()
      | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (waitpid_nointr [] pid)
      | _ -> ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ();
    live := List.filter (( <> ) pid) !live
  end

let () = at_exit (fun () -> List.iter (stop ~grace:5.0) !live)

(* Poll [probe] every 10 ms until it answers true. A fixed interval
   keeps set-up time free of the random sleeps a jittered retry would
   add. Fails after [timeout] seconds or if [pid] exits first. *)
let await_ready ?(timeout = 60.0) ~pid ~what probe =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    if probe () then ()
    else begin
      (match waitpid_nointr [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ ->
        live := List.filter (( <> ) pid) !live;
        failwith (what ^ " exited before it was ready"));
      if Unix.gettimeofday () > deadline then failwith (what ^ " not ready in time");
      Unix.sleepf 0.01;
      loop ()
    end
  in
  loop ()

(* One connect + ping, no retries. *)
let ping addr =
  match Umrs_client.connect addr with
  | Error _ -> false
  | Ok c ->
    Fun.protect ~finally:(fun () -> Umrs_client.close c) (fun () ->
        Result.is_ok (Umrs_client.ping c))
