(* Machine-speed calibration.

   The reference machine is a shared VM whose CPUs change speed by up to
   2x, for seconds to minutes at a time, as other tenants load the
   hyperthread siblings and the shared caches; the process CPU time slows
   with the wall clock. A timing taken in a slow spell measures the other
   tenants, not the program, and two runs of the same code a few minutes
   apart differed by a quarter. So every timed unit of work runs between
   two runs of a fixed calibration kernel on the same CPU (and, if it
   lasts longer than [sample_every] of CPU time, with kernel runs inside
   it too), and is reported in reference seconds:

     reference seconds = busy seconds of the unit / slowdown
     slowdown          = mean kernel time around the unit / reference_s

   A change to the library moves the unit's time and not the kernel's,
   so it shows in full; a slow spell moves both, and cancels.

   The kernel is the benchmark's own code: sorting and an
   open-addressing hash table over preallocated arrays, and short-lived
   minor-heap allocation (a Map and a list). It allocates nothing that
   survives, so its time does not depend on the size of the program's
   heap. On the reference machine the ratio of a unit's time to the
   kernel's around it varied by 2-5% between 25 s stretches in which the
   raw unit time varied by 15-70%. *)

(* [f ()] and the seconds it kept the CPU busy: the wall-clock time
   less the time the CPU was taken away from it, by the hypervisor
   running other guests (steal time) or by other processes. The process
   CPU time excludes both and is used while the work runs on one thread,
   where it cannot exceed the wall-clock time; work spread over several
   domains takes more CPU time than wall-clock time, and then the wall
   clock is kept. *)
let busy f =
  let c0 = Sys.time () and t0 = Umrs_bench.Clock.now_ns () in
  let r = f () in
  let cpu = Sys.time () -. c0 and wall = Umrs_bench.Clock.since_s t0 in
  (r, Float.min cpu wall)

let n = 8192
let src = let st = Random.State.make [| 0xCA11B |] in Array.init n (fun _ -> Random.State.bits st)
let sorted = Array.make n 0
let table = Array.make (2 * n) (-1)
let sink = ref 0

module Int_map = Map.Make (Int)

let kernel () =
  Array.blit src 0 sorted 0 n;
  Array.sort Int.compare sorted;
  Array.fill table 0 (2 * n) (-1);
  let mask = (2 * n) - 1 in
  let rec slot k j = if table.(j) = -1 || table.(j) = k then j else slot k ((j + 1) land mask) in
  Array.iter (fun k -> table.(slot k (k land mask)) <- k) src;
  let hits = ref sorted.(0) in
  for r = 0 to 3 do
    Array.iter (fun k -> if table.(slot (k + r) ((k + r) land mask)) = k + r then incr hits) src
  done;
  for r = 1 to 6 do
    let m = ref Int_map.empty in
    for i = 0 to 1023 do
      m := Int_map.add src.((i * r) land (n - 1)) i !m
    done;
    hits := !hits + Int_map.fold (fun k v acc -> (k lxor v) + acc) !m 0;
    let l = List.init 2048 (fun i -> (src.(i), i)) in
    hits := !hits + List.fold_left (fun acc (x, y) -> acc + x + y) 0 (List.rev l)
  done;
  sink := !hits

(* The kernel's busy time on the reference machine in a quiet spell. *)
let reference_s = 0.005

(* One run of the kernel: its busy seconds. A traced run records it as
   a [calib.kernel] span. *)
let probe () = Trace.span "calib.kernel" (fun () -> snd (busy kernel))

(* Kernel runs inside the unit being timed, taken by the SIGPROF
   handler. The profiling timer counts the process's CPU time, as [busy]
   does, so the signal comes only while the process runs; the batch
   units make no system call that sleeps (file I/O does not), so none
   is interrupted, and units that wait on sockets take no kernel runs
   inside (see [time]). The handler runs in the thread doing the work,
   so nothing else runs meanwhile. It records no span (it may run while
   the span recorder holds its lock), so a traced run takes no kernel
   runs inside units. *)
let inside : float list ref = ref []

let () =
  Sys.set_signal Sys.sigprof
    (Sys.Signal_handle (fun _ -> inside := snd (busy kernel) :: !inside))

let arm period =
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = period; it_value = period })

let sum = List.fold_left ( +. ) 0.0

(* CPU seconds of work between two kernel runs inside a unit. *)
let sample_every = 0.1

type timing = {
  ref_s : float;     (** the unit's busy time in reference seconds *)
  slowdown : float;  (** mean kernel time around and inside it / reference_s *)
}

(* [f ()] timed between kernel runs on the current CPU. With [~wall],
   by the wall clock: for work that other processes share, such as
   starting a server child. With [~sample:false], no kernel runs inside
   [f]: for a unit whose parts [f] times one by one, or one that waits
   on sockets (a signal arriving in a system call that then sleeps
   interrupts it). *)
let time ?(wall = false) ?(sample = true) f =
  let before = probe () in
  inside := [];
  if sample && not !Trace.enabled then arm sample_every;
  let f () = Fun.protect ~finally:(fun () -> arm 0.0) f in
  let r, busy_s = if wall then Umrs_bench.Clock.time f else busy f in
  let after = probe () in
  let runs = before :: after :: !inside in
  let slowdown = sum runs /. float_of_int (List.length runs) /. reference_s in
  (r, { ref_s = (busy_s -. sum !inside) /. slowdown; slowdown })
