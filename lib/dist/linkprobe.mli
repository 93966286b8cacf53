(** Measure what a message actually costs on this host's wire.

    The scheduler prices every cross-processor value at [k] abstract
    cycles (machine parameter, paper §2).  The socket backend makes
    that cost real: a tagged float in a {!Wire} link frame through a
    Unix socketpair, kernel crossings included, over the same
    {!Mesh_sock.Link} a run's links use (spin, then park).  The probe
    forks an echo peer per link, round-trips real frames, and divides the median
    one-way latency by a calibrated per-cycle cost, yielding the
    {e effective} [k] to hold next to the assumed one; {!measured_k}
    turns it into the scalar [k] that [--auto-k] schedules at.

    Forks: run before any domain is spawned (see {!Runner}). *)

type link = {
  a : int;
  b : int;
  rtt_ns : float;  (** median round trip *)
  one_way_ns : float;  (** rtt / 2 *)
  effective_k : float;  (** one-way cost in calibrated cycles *)
}

type t = { cycle_ns : float; links : link list }

val calibrate_cycle_ns : unit -> float
(** Nanoseconds per abstract machine cycle on this host: the timed mix
    (hashtable store/load + float evaluation) approximating one
    [Compute] instruction of the value runtime. *)

val probe : ?rounds:int -> ?procs:int -> unit -> t
(** Probe every link of a [procs]-processor mesh (default 2; all
    host-local links are physically identical, more procs mainly
    demonstrates the per-link shape).  [rounds] (default 200)
    round-trips per link, median taken.  Unordered: only the [i < j]
    pairs are probed and each measurement stands for both directions.
    @raise Invalid_argument when [procs < 2]. *)

val measured_k : t -> int
(** The scalar [k] the probe measures: [max 1 (round e)] where [e] is
    the largest {!link.effective_k} over the probed links (the paper's
    [k] is an upper bound, so the dearest link sets it).  What
    [--auto-k] schedules at.  Pure: no probing happens here. *)

val render : ?assumed_k:int -> t -> string
(** Human report; with [assumed_k] each line shows the scheduler's
    assumption next to the measurement, plus a hint to schedule at the
    measured [k] ([--auto-k]) when they diverge wildly. *)
