(** The socket counterpart of the in-process domain channels: one
    full-duplex [socketpair(2)] per unordered processor pair, with
    {!Wire} frames as messages, presented to
    {!Mimd_runtime.Exec_compiled.worker} through the same
    {!Mimd_runtime.Value_run.chans} interface, built by
    {!Mimd_runtime.Value_run.of_links} — so the worker's instruction
    semantics (tagged messages, out-of-order stashing, blocking at
    capacity) are shared code, not a reimplementation.

    Capacity: the kernel socket buffer is sized to
    [capacity * frame-estimate] bytes, so a sender that runs far ahead
    blocks in [write(2)] just as [Channel.send] blocks past its bound.
    The kernel enforces a minimum buffer, so the socket bound is never
    {e tighter} than the domain mesh's — a program the token
    simulation proves deadlock-free at the default capacity cannot
    deadlock here. *)

type t

val create : ?capacity:int -> procs:int -> unit -> t
(** Build every link in the parent, {e before} forking children.
    [capacity] defaults to
    {!Mimd_runtime.Value_run.default_channel_capacity}. *)

val procs : t -> int

val link : t -> proc:int -> peer:int -> Unix.file_descr
(** Processor [proc]'s endpoint of its link to [peer].
    @raise Invalid_argument for the diagonal. *)

val retain_only : t -> proc:int -> unit
(** Child-side, right after fork: close every inherited endpoint that
    does not belong to row [proc], so a dead peer becomes EOF (a
    structured {!Link_down}) instead of a silent hang. *)

val close_all : t -> unit
(** Parent-side, after all forks: the parent holds no link. *)

exception Link_down of { proc : int; peer : int; error : Wire.error }
(** Raised out of a channel operation when the underlying stream
    breaks — the child-side face of a crashed peer. *)

val chans : t -> proc:int -> Mimd_runtime.Value_run.chans
(** The channel interface for processor [proc]: {!chans_of} over this
    mesh's row. *)

val chans_of :
  procs:int -> proc:int -> link:(int -> Unix.file_descr) -> Mimd_runtime.Value_run.chans
(** The channel interface over any peer-to-fd mapping of a [procs]-PE
    mesh: each link is one {!Wire} frame stream, and
    {!Mimd_runtime.Value_run.of_links} matches its frames to recvs by
    tag.  [send] writes one frame; a pull reads one.  Emits a
    [dist.send] span per frame written and a [dist.recv] span per
    frame read (waiting for it included) while tracing is on; a recv
    served from the stash reads nothing.  Stream errors, either way,
    raise {!Link_down} with this [proc].  Transports ({!Mesh_tcp})
    share this rather than reimplementing framing, matching or
    tracing. *)
