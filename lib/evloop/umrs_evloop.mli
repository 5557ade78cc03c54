(** Readiness event loop over many descriptors: Linux epoll when
    available, [Unix.select] fallback elsewhere.

    The select backend is subject to FD_SETSIZE (1024 on glibc): any
    descriptor numbered at or above it is undefined behaviour for
    select, so high-connection servers must run on [Epoll].  [create]
    without an explicit backend picks epoll whenever the platform has
    it.

    All mutating operations ([add]/[modify]/[remove]/[wait]) belong to
    the single poller thread; only [wakeup] may be called from other
    threads or domains. *)

type t

type backend =
  | Epoll
  | Select

val epoll_available : unit -> bool

val create : ?backend:backend -> unit -> t
(** Defaults to [Epoll] when the platform supports it. The environment
    variable [UMRS_EVLOOP_BACKEND] ([select] or [epoll]) overrides the
    auto-pick — but never an explicit [?backend] argument — so tests
    and CI can force the portable fallback on Linux. *)

val backend : t -> backend

val add : t -> Unix.file_descr -> readable:bool -> writable:bool -> unit
val modify : t -> Unix.file_descr -> readable:bool -> writable:bool -> unit

val remove : t -> Unix.file_descr -> unit
(** Forgets the descriptor; safe to call after the fd is closed and on
    fds that were never added. *)

val wait :
  t ->
  timeout_ms:int ->
  handler:
    (Unix.file_descr -> readable:bool -> writable:bool -> hup:bool -> unit) ->
  int
(** Blocks up to [timeout_ms] (-1 = forever), invokes [handler] once
    per ready descriptor, and returns how many were delivered.  0
    means timeout, EINTR, or a bare [wakeup].  The wakeup descriptor
    is drained internally and never reported.  A descriptor closed by
    an earlier handler of the same batch is skipped, not reported
    stale. *)

val wakeup : t -> unit
(** Interrupt a concurrent [wait].  Thread- and domain-safe,
    coalescing, never blocks. *)

val wakeups : t -> int
(** Cumulative count of [wakeup] calls. *)

val waits : t -> int
(** Cumulative count of [wait] calls (loop iterations). *)

val fd_count : t -> int
(** Registered descriptors, wakeup fd excluded. *)

val close : t -> unit
(** Close the loop's own descriptors.  Registered fds stay open; they
    belong to the caller. *)

(** {1 Single-descriptor waits}

    poll(2)-based, so valid for any descriptor number — use these
    instead of [Unix.select] for one-off readiness waits. *)

val poll1 : Unix.file_descr -> readable:bool -> writable:bool -> timeout_ms:int -> int
(** Returns a bitmask: 1 = readable, 2 = writable, 4 = hup/error.
    0 on timeout or EINTR. *)

val wait_writable : Unix.file_descr -> timeout_ms:int -> bool

val raise_nofile : int -> int
(** [raise_nofile target] lifts the soft RLIMIT_NOFILE toward [target]
    (capped at the hard limit) and returns the soft limit now in
    effect. *)

val int_of_fd : Unix.file_descr -> int
