(* The pluggable I/O seam.

   Store and server code does its file and socket I/O through this
   module instead of Stdlib/Unix directly. With no fault plan
   installed every operation is the real syscall plus one atomic load;
   with a plan installed, operations consult {!Fault.fire} and the
   tracked-file registry that powers simulated power loss.

   Tracked output files buffer writes and fire [File_write] once per
   flushed chunk rather than once per [output_bytes] call — a corpus
   of n records is a handful of fault points, not n, which keeps an
   exhaustive crash-point sweep tractable. *)

let chunk_bytes = 8192

type out = {
  o_oc : out_channel;
  o_entry : Fault.entry option;
  o_buf : Buffer.t;
  mutable o_closed : bool;
}

let open_out path =
  let oc = open_out_bin path in
  let entry = if Fault.enabled () then Fault.track_open ~path oc else None in
  { o_oc = oc; o_entry = entry; o_buf = Buffer.create 256; o_closed = false }

let flush_buf o =
  if Buffer.length o.o_buf > 0 then begin
    ignore (Fault.fire Fault.File_write);
    Buffer.output_buffer o.o_oc o.o_buf;
    Buffer.clear o.o_buf
  end

let output_bytes o b =
  match o.o_entry with
  | None -> Stdlib.output_bytes o.o_oc b
  | Some _ ->
    Buffer.add_bytes o.o_buf b;
    if Buffer.length o.o_buf >= chunk_bytes then flush_buf o

let output_string o s =
  match o.o_entry with
  | None -> Stdlib.output_string o.o_oc s
  | Some _ ->
    Buffer.add_string o.o_buf s;
    if Buffer.length o.o_buf >= chunk_bytes then flush_buf o

let pos o = pos_out o.o_oc + Buffer.length o.o_buf

let seek o dst =
  flush_buf o;
  Stdlib.flush o.o_oc;
  seek_out o.o_oc dst;
  (* overwriting below the fsync watermark makes that region volatile
     again: the rewrite sits in the page cache like any other dirty
     data *)
  match o.o_entry with
  | Some e when dst < e.e_synced -> e.e_synced <- dst
  | _ -> ()

let fsync o =
  flush_buf o;
  Stdlib.flush o.o_oc;
  match Fault.fire Fault.File_fsync with
  | Fault.Drop_fsync -> ()
  | a ->
    (match a with Fault.Delay s -> Unix.sleepf s | _ -> ());
    let fd = Unix.descr_of_out_channel o.o_oc in
    Unix.fsync fd;
    (match o.o_entry with
    | Some e -> e.e_synced <- (Unix.fstat fd).Unix.st_size
    | None -> ())

let close o =
  flush_buf o;
  ignore (Fault.fire Fault.File_close);
  o.o_closed <- true;
  (match o.o_entry with Some e -> e.e_open <- false | None -> ());
  close_out o.o_oc

let close_noerr o =
  if not o.o_closed then begin
    o.o_closed <- true;
    (match o.o_entry with Some e -> e.e_open <- false | None -> ());
    (try Buffer.output_buffer o.o_oc o.o_buf with Sys_error _ -> ());
    close_out_noerr o.o_oc
  end

let rename ~src ~dst =
  ignore (Fault.fire Fault.File_rename);
  Fault.track_rename ~src ~dst

let fsync_dir dir =
  match Fault.fire Fault.Dir_fsync with
  | Fault.Drop_fsync -> ()
  | a ->
    (match a with Fault.Delay s -> Unix.sleepf s | _ -> ());
    (match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error _ -> ()
    | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* some filesystems refuse fsync on directories; the rename
             is then as durable as the platform can make it *)
          try Unix.fsync fd with Unix.Unix_error _ -> ()));
    Fault.commit_renames ~dir

(* Rename alone is atomic against concurrent readers but not against
   power loss: without the fsyncs the new name can point at a torn
   file, or vanish, after a crash. The content is written in one piece
   so the seam sees a bounded number of write points per file. *)
let atomic_write ~path f =
  let tmp = path ^ ".tmp" in
  let buf = Buffer.create 512 in
  f buf;
  let o = open_out tmp in
  (match
     output_string o (Buffer.contents buf);
     fsync o
   with
  | () -> close o
  | exception (Fault.Crashed as e) ->
    (* simulated power loss: a dead process removes nothing *)
    raise e
  | exception e ->
    close_noerr o;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  rename ~src:tmp ~dst:path;
  fsync_dir (Filename.dirname path)

(* ---------- EINTR-hardened raw syscalls ---------- *)

let sleepf seconds =
  let until = Unix.gettimeofday () +. seconds in
  let rec go () =
    let left = until -. Unix.gettimeofday () in
    if left > 0.0 then
      match Unix.sleepf left with
      | () -> go ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* Run [f], retrying on EINTR; the first [injected] attempts fail with
   a synthetic EINTR so storms exercise the same retry path real
   signals do. *)
let with_eintr_budget injected f =
  let left = ref injected in
  let rec go () =
    match
      if !left > 0 then begin
        decr left;
        raise (Unix.Unix_error (Unix.EINTR, "injected", ""))
      end
      else f ()
    with
    | v -> v
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let read fd buf ofs len =
  match Fault.fire Fault.Sock_read with
  | Fault.Half_close -> 0
  | Fault.Reset -> raise (Unix.Unix_error (Unix.ECONNRESET, "read", ""))
  | a ->
    (match a with Fault.Delay s -> sleepf s | _ -> ());
    let injected = match a with Fault.Eintr n -> n | _ -> 0 in
    with_eintr_budget injected (fun () -> Unix.read fd buf ofs len)

let write_all fd buf ofs len =
  let a = Fault.fire Fault.Sock_write in
  (match a with
  | Fault.Reset -> raise (Unix.Unix_error (Unix.EPIPE, "write", ""))
  | Fault.Delay s -> sleepf s
  | _ -> ());
  let budget = ref (match a with Fault.Eintr n -> n | _ -> 0) in
  let cap = ref (match a with Fault.Short_write n -> max 1 n | _ -> max_int) in
  let rec go ofs len =
    if len > 0 then begin
      let ask = min len !cap in
      cap := max_int;
      let n =
        with_eintr_budget
          (let b = !budget in
           budget := 0;
           b)
          (fun () -> Unix.write fd buf ofs ask)
      in
      go (ofs + n) (len - n)
    end
  in
  go ofs len

(* One write syscall, for non-blocking descriptors owned by an event
   loop: EAGAIN propagates (the loop re-arms on writability) instead
   of spinning in a retry loop that would stall every other
   connection.  Injected [Short_write n] caps the attempt so the
   partial-write resume path is exercised by storms. *)
let write_once fd buf ofs len =
  let a = Fault.fire Fault.Sock_write in
  (match a with
  | Fault.Reset -> raise (Unix.Unix_error (Unix.EPIPE, "write", ""))
  | Fault.Delay s -> sleepf s
  | _ -> ());
  let injected = match a with Fault.Eintr n -> n | _ -> 0 in
  let ask = match a with Fault.Short_write n -> min len (max 1 n) | _ -> len in
  with_eintr_budget injected (fun () -> Unix.write fd buf ofs ask)

let accept ?(cloexec = false) fd =
  let a = Fault.fire Fault.Sock_accept in
  (match a with Fault.Delay s -> sleepf s | _ -> ());
  let injected = match a with Fault.Eintr n -> n | _ -> 0 in
  with_eintr_budget injected (fun () -> Unix.accept ~cloexec fd)

let connect fd sa =
  (match Fault.fire Fault.Sock_connect with
  | Fault.Reset -> raise (Unix.Unix_error (Unix.ECONNREFUSED, "connect", ""))
  | Fault.Delay s -> sleepf s
  | _ -> ());
  try Unix.connect fd sa
  with Unix.Unix_error (Unix.EINTR, _, _) ->
    (* the kernel continues the attempt asynchronously: wait until the
       socket has a disposition, then read it.  poll(2), not select:
       this fd may be numbered past FD_SETSIZE in a 10k-connection
       client. *)
    let rec wait () =
      if not (Umrs_evloop.wait_writable fd ~timeout_ms:1000) then wait ()
    in
    wait ();
    (match Unix.getsockopt_error fd with
    | None -> ()
    | Some e -> raise (Unix.Unix_error (e, "connect", "")))

(* ---------- hooks for channel-based socket paths ---------- *)

(* OCaml channels already retry EINTR internally, so channel hooks
   only surface faults a channel user can see: delays, peer resets
   (Sys_error, as a failed syscall becomes) and half-closes
   (End_of_file). *)
let socket_hook point =
  match Fault.fire point with
  | Fault.Pass -> ()
  | Fault.Delay s -> sleepf s
  | Fault.Half_close -> raise End_of_file
  | Fault.Reset -> raise (Sys_error "injected: connection reset by peer")
  | Fault.Exn m -> raise (Fault.Injected m)
  | Fault.Eintr _ | Fault.Crash | Fault.Drop_fsync | Fault.Short_write _ -> ()

let on_sock_read () = socket_hook Fault.Sock_read
let on_sock_write () = socket_hook Fault.Sock_write

let worker_hook () =
  match Fault.fire Fault.Worker with
  | Fault.Exn m -> raise (Fault.Injected m)
  | Fault.Delay s -> sleepf s
  | _ -> ()
