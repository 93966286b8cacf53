(** The socket counterpart of the in-process domain channels: one
    full-duplex [socketpair(2)] per unordered processor pair, with
    {!Wire} link frames as messages ({!Link}), presented to
    {!Mimd_runtime.Exec_compiled.worker} through the same
    {!Mimd_runtime.Value_run.chans} interface, built by
    {!Mimd_runtime.Value_run.of_links} — so the worker's instruction
    semantics (tagged messages, out-of-order stashing, blocking at
    capacity) are shared code, not a reimplementation.

    Capacity: the kernel socket buffer is sized to
    [capacity * frame-estimate] bytes, so a sender that runs far ahead
    waits for the link to drain just as [Channel.send] blocks past its
    bound.
    The kernel enforces a minimum buffer, so the socket bound is never
    {e tighter} than the domain mesh's — a program the token
    simulation proves deadlock-free at the default capacity cannot
    deadlock here. *)

type t

val create : procs:int -> unit -> t
(** Build every link in the parent, {e before} forking children, with
    [capacity] = {!Mimd_runtime.Value_run.default_channel_capacity}. *)

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

(** {1 The link}

    What every socket link — socketpair or TCP — runs: binary
    {!Wire} link frames, each encoded into a reused buffer and sent
    with one [write(2)]; a buffered reader that decodes every whole
    frame one [read(2)] brought in; and a non-blocking fd that a pull
    spins on for an adaptive budget ({!Spin}) before it parks in
    [select(2)].  A full send buffer parks in [select(2)] too. *)

val spin_cap_ns : int
(** The largest spin budget, 50 us: a fixed 30 us spin already made
    fig7 2.5-3.5x slower beside one CPU hog on a 2-vCPU host, and a
    fixed 50 us spin at p=3 doubled ewf, so the budget adapts
    ({!Spin}) and never exceeds this.  It is also the length of the
    probe a link at 0 makes after 16 or more parks: a frame from a
    parked peer takes 10-20 us, longer than a shorter probe waits. *)

(** The spin budget of one link, additive increase and multiplicative
    decrease.  It starts at the cap, so two peers begin by spinning;
    six wasted spins take it to 0.  A link at 0 probes once at the
    cap after 16 parks; each wasted probe doubles the parks before the
    next, up to 1024, and a frame that ends a probe resets them to
    16. *)
module Spin : sig
  type t

  val create : unit -> t
  val budget_ns : t -> int

  val arrived : t -> unit
  (** A frame arrived while spinning: add [spin_cap_ns / 8], up to the
      cap. *)

  val wasted : t -> unit
  (** The spin ran out and the reader parks: halve the budget, and
      make a budget under 1 us 0.  A probe that runs out goes straight
      to 0 and doubles the parks before the next probe. *)

  val parked_idle : t -> unit
  (** The reader parked with a budget of 0 and no spin: once there
      have been as many such parks as the probe interval (16 at
      first), set the budget to [spin_cap_ns] for one probe.  A frame
      that arrives during the probe keeps the cap and resets the
      interval to 16 ({!arrived}). *)
end

module Link : sig
  type t

  val create : Unix.file_descr -> t
  (** Take over a connected stream fd: it is made non-blocking. *)

  val send : t -> tag:int * int -> Mimd_runtime.Value_run.payload -> unit
  (** Encode and write one frame, parking in [select(2)] while the
      send buffer is full.  Allocates nothing for a Single once the
      encode buffer has grown to fit.
      @raise Unix.Unix_error when the stream is broken. *)

  val pull : t -> (Wire.frame, Wire.error) result
  (** The next frame, in the order the peer sent them: decoded from
      the buffer if a whole one is there, else read for — spinning up
      to the {!Spin} budget, then parked.  End of stream is [Closed]
      on a frame boundary and [Truncated] inside one; a malformed
      frame is its {!Wire.decode} error. *)
end

val chans : t -> proc:int -> Mimd_runtime.Value_run.chans
(** The channel interface for processor [proc]: {!chans_of} over this
    mesh's row. *)

val chans_of :
  procs:int -> proc:int -> link:(int -> Unix.file_descr) -> Mimd_runtime.Value_run.chans
(** The channel interface over any peer-to-fd mapping of a [procs]-PE
    mesh: each peer's fd becomes a {!Link} (so it is non-blocking from
    here on), and {!Mimd_runtime.Value_run.of_links} matches its
    frames to recvs by tag.  [send] writes one frame; a pull reads
    one.  Emits a [dist.send] span per frame written and a [dist.recv]
    span per frame pulled (waiting for it included, with [parked] =
    whether the wait parked) while tracing is on; a recv served from
    the stash pulls nothing.  Stream errors, either way, raise
    {!Link_down} with this [proc].  Transports ({!Mesh_tcp}) share
    this rather than reimplementing framing, matching or tracing. *)
