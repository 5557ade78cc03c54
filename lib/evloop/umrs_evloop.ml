(* Edge-level readiness abstraction: one poller owns many fds.

   Two backends behind one interface: Linux epoll (via the C stubs)
   and a portable [Unix.select] fallback.  Select is only correct for
   descriptors below FD_SETSIZE (1024 on glibc) — callers that expect
   thousands of connections must use the epoll backend; [create]
   picks it automatically where available.

   The loop owns a wakeup descriptor (eventfd on Linux, a self-pipe
   elsewhere) so other threads/domains can interrupt a blocking wait:
   [wakeup] is async-signal-ish cheap and coalesces, [wait] drains it
   internally and never reports it to the handler. *)

external epoll_available : unit -> bool = "umrs_evl_epoll_available"
external epoll_create : unit -> Unix.file_descr = "umrs_evl_epoll_create"

external epoll_ctl : Unix.file_descr -> int -> Unix.file_descr -> int -> unit
  = "umrs_evl_epoll_ctl"

external epoll_wait_ : Unix.file_descr -> int array -> int -> int
  = "umrs_evl_epoll_wait"

external eventfd : unit -> Unix.file_descr = "umrs_evl_eventfd"
external poll1_ : Unix.file_descr -> int -> int -> int = "umrs_evl_poll1"
external raise_nofile : int -> int = "umrs_evl_raise_nofile"

(* On Unix a [file_descr] is the descriptor number itself. *)
external int_of_fd : Unix.file_descr -> int = "%identity"

(* ---------- single-descriptor waits (poll(2), no FD_SETSIZE cap) ---------- *)

let poll1 fd ~readable ~writable ~timeout_ms =
  let mask = (if readable then 1 else 0) lor (if writable then 2 else 0) in
  poll1_ fd mask timeout_ms

let wait_writable fd ~timeout_ms =
  poll1 fd ~readable:false ~writable:true ~timeout_ms land 2 <> 0

(* ---------- the loop ---------- *)

type backend =
  | Epoll
  | Select

let max_batch = 256

type t = {
  backend : backend;
  ep : Unix.file_descr;  (* epoll fd; unused by Select *)
  evbuf : int array;  (* flat (fd, flags) pairs filled by epoll_wait *)
  (* Select interest set, keyed by descriptor number.  Also used by
     the epoll backend purely to answer [fd_count]. *)
  interest : (int, Unix.file_descr * int) Hashtbl.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  wake_buf : Bytes.t;
  n_wakeups : int Atomic.t;
  n_waits : int Atomic.t;
  mutable closed : bool;
}

let backend t = t.backend
let fd_count t = Hashtbl.length t.interest
let wakeups t = Atomic.get t.n_wakeups
let waits t = Atomic.get t.n_waits

let create ?backend () =
  let backend =
    match backend with
    | Some b -> b
    | None -> (
      (* UMRS_EVLOOP_BACKEND=select forces the portable fallback — how
         CI exercises the Select data path end to end on boxes where
         epoll exists and would otherwise always win the auto-pick. *)
      match Sys.getenv_opt "UMRS_EVLOOP_BACKEND" with
      | Some "select" -> Select
      | Some "epoll" -> Epoll
      | _ -> if epoll_available () then Epoll else Select)
  in
  let ep =
    match backend with
    | Epoll -> epoll_create ()
    | Select -> Unix.stdin (* placeholder, never used *)
  in
  let wake_r, wake_w =
    match backend with
    | Epoll ->
      let efd = eventfd () in
      (efd, efd)
    | Select ->
      let r, w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock r;
      Unix.set_nonblock w;
      (r, w)
  in
  let t =
    { backend; ep; evbuf = Array.make (2 * max_batch) 0;
      interest = Hashtbl.create 64; wake_r; wake_w;
      wake_buf = Bytes.create 8; n_wakeups = Atomic.make 0;
      n_waits = Atomic.make 0; closed = false }
  in
  (match backend with
  | Epoll -> epoll_ctl t.ep 0 t.wake_r 1
  | Select -> ());
  t

let mask_of ~readable ~writable =
  (if readable then 1 else 0) lor (if writable then 2 else 0)

let add t fd ~readable ~writable =
  let mask = mask_of ~readable ~writable in
  (match t.backend with
  | Epoll -> epoll_ctl t.ep 0 fd mask
  | Select -> ());
  Hashtbl.replace t.interest (int_of_fd fd) (fd, mask)

let modify t fd ~readable ~writable =
  let mask = mask_of ~readable ~writable in
  (match t.backend with
  | Epoll -> epoll_ctl t.ep 1 fd mask
  | Select -> ());
  Hashtbl.replace t.interest (int_of_fd fd) (fd, mask)

let remove t fd =
  let k = int_of_fd fd in
  if Hashtbl.mem t.interest k then begin
    Hashtbl.remove t.interest k;
    match t.backend with
    | Epoll -> (
      (* EBADF/ENOENT here means the caller already closed the fd,
         which deregisters it from epoll on its own *)
      try epoll_ctl t.ep 2 fd 0 with Unix.Unix_error _ -> ())
    | Select -> ()
  end

(* A coalescing nudge: full pipe/counter means a wakeup is already
   pending, which is all we need. *)
let wakeup t =
  Atomic.incr t.n_wakeups;
  let one = Bytes.make 8 '\000' in
  Bytes.set one 7 '\001';
  (* eventfd counters are little-endian u64 on all OCaml targets we
     build for; the pipe backend only needs any byte at all *)
  Bytes.set one 0 '\001';
  try
    ignore
      (Unix.write t.wake_w one 0 (match t.backend with Epoll -> 8 | Select -> 1))
  with
  | Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | Unix.Unix_error (Unix.EBADF, _, _) -> ()

let drain_wake t =
  let rec go () =
    match Unix.read t.wake_r t.wake_buf 0 8 with
    | n when n > 0 -> go ()
    | _ -> ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let wait_epoll t ~timeout_ms ~handler =
  let n = epoll_wait_ t.ep t.evbuf timeout_ms in
  let delivered = ref 0 in
  let wake_no = int_of_fd t.wake_r in
  for i = 0 to n - 1 do
    let fdno = t.evbuf.(2 * i) in
    let flags = t.evbuf.((2 * i) + 1) in
    if fdno = wake_no then drain_wake t
    else begin
      incr delivered;
      (* only fds still registered: a handler earlier in this batch may
         have closed this one *)
      match Hashtbl.find_opt t.interest fdno with
      | None -> ()
      | Some (fd, _) ->
        handler fd ~readable:(flags land 1 <> 0) ~writable:(flags land 2 <> 0)
          ~hup:(flags land 4 <> 0)
    end
  done;
  !delivered

let wait_select t ~timeout_ms ~handler =
  let rs = ref [ t.wake_r ] and ws = ref [] in
  Hashtbl.iter
    (fun _ (fd, mask) ->
      if mask land 1 <> 0 then rs := fd :: !rs;
      if mask land 2 <> 0 then ws := fd :: !ws)
    t.interest;
  let timeout = float_of_int timeout_ms /. 1000.0 in
  match Unix.select !rs !ws [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> 0
  | readable, writable, _ ->
    let delivered = ref 0 in
    let fire fd ~r ~w =
      if fd = t.wake_r then drain_wake t
      else if Hashtbl.mem t.interest (int_of_fd fd) then begin
        incr delivered;
        handler fd ~readable:r ~writable:w ~hup:false
      end
    in
    List.iter (fun fd -> fire fd ~r:true ~w:(List.memq fd writable)) readable;
    List.iter
      (fun fd -> if not (List.memq fd readable) then fire fd ~r:false ~w:true)
      writable;
    !delivered

let wait t ~timeout_ms ~handler =
  Atomic.incr t.n_waits;
  match t.backend with
  | Epoll -> wait_epoll t ~timeout_ms ~handler
  | Select -> wait_select t ~timeout_ms ~handler

let close t =
  if not t.closed then begin
    t.closed <- true;
    Hashtbl.reset t.interest;
    (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
    if t.wake_w <> t.wake_r then
      (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
    match t.backend with
    | Epoll -> ( try Unix.close t.ep with Unix.Unix_error _ -> ())
    | Select -> ()
  end
