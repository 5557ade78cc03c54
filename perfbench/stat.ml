(* Sampling rules and process measurements shared by every workload. *)

module Q = Umrs_bench.Quantile

exception Under_sampled of string

(* Nearest-rank percentile [pct] of [samples], reported only when at
   least 10 samples lie beyond it; otherwise the run is under-sampled
   and fails rather than print a tail read from a handful of points. *)
let tail ~what ~pct samples =
  let n = Array.length samples in
  let rank = int_of_float (Float.ceil (pct /. 100.0 *. float_of_int n)) in
  if n = 0 || n - rank < 10 then
    raise
      (Under_sampled
         (Printf.sprintf "%s: p%g needs 10 samples beyond it, %d samples give %d"
            what pct n (max 0 (n - rank))));
  Q.value (Q.of_array samples) pct

let median samples = Q.p50 (Q.of_array samples)

(* VmHWM (peak resident set) of a live process, in MiB. The process
   must still be running: once a child has exited and been reaped its
   /proc entry is gone and this raises [Sys_error]. *)
let vmhwm_mib pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | exception End_of_file -> failwith (path ^ ": no VmHWM line")
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kib ->
          float_of_int kib /. 1024.0)
    | _ -> find ()
  in
  find ()

(* The larger peak RSS of this process and its live children. *)
let peak_rss_mib ~children =
  List.fold_left (fun acc pid -> Float.max acc (vmhwm_mib pid)) (vmhwm_mib 0) children
