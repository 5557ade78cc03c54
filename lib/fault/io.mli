(** The pluggable I/O seam: real syscalls by default, fault-injectable
    under a {!Fault} plan, one atomic load of overhead when disabled.

    {2 Tracked output files}

    [out] wraps an [out_channel]. While a plan is installed the file
    is registered with {!Fault}'s crash model (fsync watermarks, torn
    tails, rename rollback) and writes are buffered so [File_write]
    fault points fire per flushed chunk, not per call. With no plan,
    operations go straight to the channel. *)

type out

val open_out : string -> out
(** Opens (and truncates) a file for binary writing, like
    [open_out_bin]. *)

val output_bytes : out -> Bytes.t -> unit
val output_string : out -> string -> unit

val pos : out -> int
val seek : out -> int -> unit

val fsync : out -> unit
(** Flush and fsync. Under a plan this advances the file's durability
    watermark — or silently doesn't, when a [Drop_fsync] fault
    fires. *)

val close : out -> unit
val close_noerr : out -> unit
(** Best-effort close for error paths; never raises, fires no fault
    point. *)

val rename : src:string -> dst:string -> unit
(** [Sys.rename], recorded as rollback-eligible under a plan until
    {!fsync_dir} on the destination's directory pins it. *)

val fsync_dir : string -> unit
(** Fsync a directory so renames into it survive power loss. Silently
    tolerates filesystems that refuse directory fsync. *)

val atomic_write : path:string -> (Buffer.t -> unit) -> unit
(** Durable atomic replacement of [path]: the bytes [f] puts in a
    buffer go, in one write, to [path ^ ".tmp"] in the same directory,
    which is fsynced, renamed over [path], and the directory fsynced,
    every step through this seam. A reader, or a restart after power
    loss, finds the old file or the new one, never a torn one. On an
    exception other than a simulated crash the temp file is removed
    and the exception re-raised; [Sys_error] when a file cannot be
    opened. *)

(** {2 EINTR-hardened raw syscalls}

    Wrappers over [Unix] that retry [EINTR] (injected storms and real
    signals take the same path) and surface injected socket faults as
    the errors real peers cause. *)

val sleepf : float -> unit
(** [Unix.sleepf] that re-sleeps the remainder after [EINTR]. *)

val read : Unix.file_descr -> Bytes.t -> int -> int -> int
val write_all : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** Writes the whole range, looping over short writes. *)

val write_once : Unix.file_descr -> Bytes.t -> int -> int -> int
(** A single [Unix.write] with socket faults applied, for non-blocking
    descriptors: returns the byte count of one syscall, propagates
    [EAGAIN] to the owning event loop, and honours injected short
    writes by capping the attempt. *)

val accept : ?cloexec:bool -> Unix.file_descr -> Unix.file_descr * Unix.sockaddr
val connect : Unix.file_descr -> Unix.sockaddr -> unit
(** After a real [EINTR] the in-progress connection is awaited with
    [poll] (valid above FD_SETSIZE, unlike [select]) and its
    disposition read from [SO_ERROR], per POSIX — calling [connect]
    again would fail with [EALREADY]. *)

(** {2 Channel-path hooks}

    Called by {!Umrs_server.Wire} around frame reads/writes on
    buffered channels (which retry EINTR themselves): inject delays,
    resets ([Sys_error]) and half-closes ([End_of_file]). *)

val on_sock_read : unit -> unit
val on_sock_write : unit -> unit

val worker_hook : unit -> unit
(** Called by the server inside a worker's request handler; raises
    {!Fault.Injected} when the plan kills this handler. *)
