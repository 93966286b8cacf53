(** Measure what a message actually costs on this host's wire.

    The scheduler prices every cross-processor value at [k] abstract
    cycles (machine parameter, paper §2).  The socket backend makes
    that cost real: a tagged float in a {!Mimd_runtime.Wire} link
    frame through a shared-memory ring, over the same
    {!Mimd_runtime.Mesh_sock.ring_link} a team's links, and a run's
    domains, use (spin, then park on the socketpair doorbell).  The probe
    spawns an echo peer ({!Member.Echo}) per link over a one-pair mesh,
    round-trips real frames, and divides the median one-way latency by
    the calibrated cost of a cycle of the lowered evaluator, yielding
    the {e effective} [k] to hold next to the assumed one;
    {!measured_k} turns it into the scalar [k] that [--auto-k]
    schedules at. *)

type link = {
  a : int;
  b : int;
  rtt_ns : float;  (** median round trip *)
  one_way_ns : float;  (** rtt / 2 *)
  effective_k : float;  (** one-way cost in calibrated cycles *)
}

type t = { cycle_ns : float; links : link list }

val calibrate_cycle_ns : unit -> float
(** Nanoseconds per abstract machine cycle on this host, as the
    lowered evaluator runs them: the median of five timed one-PE runs
    of ewf at n = 1000 through {!Mimd_runtime.Exec_compiled.worker} on
    the calling thread, divided by the schedule's makespan in cycles.
    The runs happen in a spawned member ({!Member.Cycle_timer}), so
    the caller's heap does not grow.
    @raise Failure when the member reports no time. *)

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
