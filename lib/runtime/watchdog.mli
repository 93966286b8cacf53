(** Stall detection for real parallel executions.

    A simulated execution can detect deadlock instantly (no processor
    can step); a real one cannot — a domain blocked in [Recv] for a
    message nobody will send just waits forever.  The watchdog runs in
    the coordinating domain while the workers execute: it polls a
    global progress counter and, when no instruction retires anywhere
    for [timeout] seconds, cancels every channel (unblocking all
    waiters) and reports a {!stall} carrying one {!snapshot} per
    domain, which executors surface as {!Runtime_deadlock}. *)

type snapshot = {
  proc : int;  (** scheduled processor = domain index *)
  retired : int;  (** instructions completed *)
  total : int;  (** program length *)
  current : string option;
      (** rendering of the instruction the domain is stuck on, [None]
          once its program is exhausted *)
}

type stall = { timeout : float; snapshots : snapshot list }

exception Runtime_deadlock of stall
(** The structured replacement for hanging: raised by the runtime
    executors when the watchdog fires. *)

type config = { timeout : float; poll_interval : float }

val config : ?timeout:float -> ?poll_interval:float -> unit -> config
(** Defaults: [timeout = 5.0] seconds without global progress,
    [poll_interval = 0.01] seconds, the longest pause between polls.
    @raise Invalid_argument on a non-positive timeout or interval. *)

val default : config

val off : config
(** Infinite timeout: the guard only waits for completion and never
    declares a stall. *)

val guard :
  config:config ->
  finished:(unit -> bool) ->
  progress:(unit -> int) ->
  cancel:(unit -> unit) ->
  snapshots:(unit -> snapshot list) ->
  unit ->
  [ `Finished | `Stalled of stall ]
(** Poll until [finished ()] or until [progress ()] (any monotone
    counter) stops increasing for [timeout] seconds; in the latter
    case call [cancel ()] once and return the [snapshots ()].  The
    first pause is 0.1 ms (or [poll_interval], if shorter) and each
    one doubles up to [poll_interval], so a short run returns soon
    after it finishes.  Runs in the calling domain. *)

val snapshots :
  graph:Mimd_ddg.Graph.t ->
  programs:Mimd_codegen.Program.instr list array ->
  retired:(int -> int) ->
  snapshot list
(** One snapshot per processor: [retired proc] instructions of
    [programs.(proc)] done, [current] the next one rendered with the
    graph's node names.  Every executor's stall report is built here. *)

val pp_snapshot : Format.formatter -> snapshot -> unit

val describe : stall -> string
(** Multi-line report: one snapshot per domain. *)
