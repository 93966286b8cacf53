(** The processor mesh of every in-host run: one full-duplex
    [socketpair(2)] per unordered processor pair and one
    single-producer single-consumer byte ring ({!Mimd_obs.Spsc}) per
    ordered pair, with {!Wire} link frames as messages ({!Link}),
    presented to {!Exec_compiled.worker} through the
    {!Value_run.chans} interface, built by {!Value_run.of_links}.  The
    domains of {!Exec_compiled.run} and the spawned members of a socket
    team run the same links, so frame matching, the wait rule and the
    [Link_down] classification are one piece of code; TCP runs the
    same {!Link} over dialed sockets ({!row}).

    {b Rings.}  A ring link ({!ring_link}) copies its frames' bytes
    into and out of a ring in a shared mapping of the memfd that
    {!create} makes; a spawned member maps it from the descriptor it
    inherits ({!attach}).  A message costs a cache-line hop, not a
    [write(2)] and a [read(2)].  The socketpair stays as the link's
    doorbell, rung by the handshake {!Mimd_obs.Spsc} describes, which
    loses no wake-up, and as its liveness signal: end of stream on it
    is a dead peer ({!Link_down}).

    Capacity: a ring holds {!buffer_bytes} of frame bytes, at least
    [capacity] Single frames ({!Value_run.default_channel_capacity}),
    so a sender that runs far ahead waits for the link to drain, and
    the bound is never {e tighter} than the one the protocol
    simulation proves — a program it proves deadlock-free at the
    default capacity cannot deadlock here.  A link whose frames travel
    through a socket (TCP, or {!row} over bare fds) is bounded by the
    kernel's socket buffers instead, which charge a small write its
    skb truesize (about 1 KiB), not its 33 bytes. *)

type t

val create : procs:int -> unit -> t
(** Build every link, for a team in the parent before it spawns the
    members: the socketpairs, and [procs * (procs - 1)] rings of
    {!buffer_bytes} in one shared mapping of a memfd.  Every
    descriptor is close-on-exec.  Making it touches no ring page: a
    page is backed only once a link's bytes pass through it.
    @raise Failure when the rings cannot be mapped. *)

val buffer_bytes : int
(** A ring's data bytes: [capacity] KiB, with [capacity] =
    {!Value_run.default_channel_capacity}. *)

type part = {
  procs : int;
  proc : int;
  links : Unix.file_descr option array;  (** [proc]'s endpoint per peer *)
  rings : Unix.file_descr;  (** the rings' memfd *)
}
(** What a process spawned to play [proc] needs of the mesh: plain
    data naming descriptors it inherits under the same numbers. *)

val part : t -> proc:int -> part

val attach : part -> t
(** In the process that plays [part.proc]: the mesh of its endpoints
    alone, the rings mapped from the inherited memfd. *)

val close_link : t -> proc:int -> peer:int -> unit
(** Close processor [proc]'s endpoint of its link to [peer] in this
    process: what a process that plays [peer] does with the other
    end. *)

val close_all : t -> unit
(** Close every endpoint still open here and unmap the rings: a team's
    parent after all spawns (it holds no link), or a domain team once
    its domains have joined. *)

val cancel : t -> unit
(** Shut down every endpoint still open here, both directions, without
    closing it: every reader or writer parked on one of the mesh's
    links, and every later wait on one, ends in {!Link_down}.  Frames
    already in a ring are still read.  Safe to call from any domain
    while others wait; idempotent.  How a stalled or failed domain
    run is torn down. *)

exception Link_down of { proc : int; peer : int; error : Wire.error }
(** Raised out of a channel operation when the underlying stream
    breaks — the child-side face of a crashed peer. *)

(** {1 The link}

    What every link — ring or TCP — runs: binary {!Wire} link frames,
    each encoded into a reused buffer and copied into the ring or sent
    with one [write(2)]; a buffered reader that decodes every whole
    frame one copy or [read(2)] brought in; and a pull that polls for
    an adaptive budget ({!Spin}) before it parks in [select(2)].  A
    full ring or send buffer parks in [select(2)] too. *)

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
  (** Take over a connected stream fd, whose bytes carry the frames:
      it is made non-blocking. *)

  val send : t -> node:int -> iter:int -> Value_run.payload -> unit
  (** Encode and write the frame of instance (node, iter), parking in
      [select(2)] while the ring or send buffer is full.  The tag is
      the two ints, as a worker reads them from its program's record,
      so nothing is allocated for a Single once the encode buffer has
      grown to fit.
      @raise Unix.Unix_error when the stream is broken (over a ring:
      when the peer is found gone while waiting for room). *)

  val pull : t -> (Wire.frame, Wire.error) result
  (** The next frame, in the order the peer sent them: decoded from
      the buffer if a whole one is there, else read for — polling up
      to the {!Spin} budget, then parked.  End of stream is [Closed]
      on a frame boundary and [Truncated] inside one; a malformed
      frame is its {!Wire.decode} error. *)
end

val ring_link : t -> proc:int -> peer:int -> Link.t
(** Processor [proc]'s link to [peer] over the mesh's rings, the
    socketpair endpoint as its doorbell: what a team member and the
    link probe run.  Call it in the process that plays [proc]; the
    mesh must still be mapped there. *)

(** {1 A PE's row, across calls} *)

type row
(** One processor's links, one {!Link} per peer: what a long-lived PE
    process keeps between calls, so each link keeps its buffers and
    its {!Spin} budget. *)

val row : procs:int -> proc:int -> link:(int -> Unix.file_descr) -> row
(** Take over processor [proc]'s fds in any peer-to-fd mapping of a
    [procs]-PE mesh ({!Mimd_dist.Mesh_tcp}'s dialed connections, say): each
    becomes a {!Link.create} link, non-blocking from here on. *)

val ring_row : t -> proc:int -> row
(** Processor [proc]'s row of the mesh: one {!ring_link} per peer. *)

val row_chans : row -> Value_run.chans
(** The channel interface for one call over the row: a fresh
    {!Value_run.of_links} matching state over the row's
    links.  [send] writes one frame; a pull reads one.  Emits a
    [dist.send] span per frame written and a [dist.recv] span per
    frame pulled (waiting for it included, with [parked] = whether the
    wait parked) when tracing is on as the call starts; a recv served
    from the stash pulls nothing.  Stream errors, either way, raise
    {!Link_down} with this row's [proc].  Transports ({!Mimd_dist.Mesh_tcp})
    share this rather than reimplementing framing, matching or
    tracing. *)

val settle : row -> int
(** End a call: send an end marker to every peer, then read each link
    up to its peer's marker.  Every PE of the call must settle.
    Returns the frames this call left unreceived — those read before a
    marker plus those still in the call's stash; 0 means the links
    are clean for the next call.
    @raise Link_down when a peer's stream breaks first. *)
