(* Which CPU the benchmark and its server children run on.

   The reference VM's CPUs each switch between two speeds about 1.6x
   apart, for seconds to minutes at a time, independently of each other
   (another tenant on each hyperthread sibling). A run therefore moves
   from CPU to CPU between its rounds or windows: a long slow spell on
   one CPU then cannot cover the whole run. *)

external set_affinity : int -> int array -> unit = "perfbench_set_affinity"

(* "0-1,3" -> [|0; 1; 3|] *)
let parse_list s =
  String.split_on_char ',' (String.trim s)
  |> List.concat_map (fun part ->
         match String.split_on_char '-' part with
         | [ a ] -> [ int_of_string a ]
         | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (( + ) (int_of_string a))
         | _ -> invalid_arg ("Cpu.parse_list: " ^ s))
  |> Array.of_list

(* The CPUs this process may run on, as the kernel reports them at
   start-up, before any [pin]. *)
let allowed =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec find () =
    let line = input_line ic in
    match String.index_opt line ':' with
    | Some i when String.sub line 0 i = "Cpus_allowed_list" ->
      parse_list (String.sub line (i + 1) (String.length line - i - 1))
    | _ -> find ()
  in
  find ()

(* The CPU for round or window [i]: the allowed CPUs in turn. *)
let of_round i = allowed.(i mod Array.length allowed)

(* Restrict every thread of process [pid] (0: this one) to [cpus].
   Threads that exit meanwhile are skipped; new threads inherit the
   affinity of the thread that creates them. *)
let restrict ~pid cpus =
  let pid = if pid = 0 then Unix.getpid () else pid in
  Array.iter
    (fun tid ->
      try set_affinity (int_of_string tid) cpus with Unix.Unix_error (Unix.ESRCH, _, _) -> ())
    (Sys.readdir (Printf.sprintf "/proc/%d/task" pid))

(* Move every thread of process [pid] (0: this one) to [cpu]. *)
let pin ?(pid = 0) cpu = restrict ~pid [| cpu |]

(* Let every thread of this process run on any allowed CPU again. *)
let unpin () = restrict ~pid:0 allowed
