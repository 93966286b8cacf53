(** Detected steady-state patterns.

    Theorem 1 of the paper: the greedy communication-aware schedule of
    a Cyclic subset settles into a repeating pattern.  A pattern is a
    slice of the infinite schedule between two identical
    {e configurations} (see {!Config_window}): repeating the slice —
    shifting start cycles by its {!height} and iteration indices by its
    {!iter_shift} — reproduces the schedule of the whole loop.

    The slice found at cycles [\[window_start, window_start + height)]
    is stored with absolute start cycles; everything scheduled before
    [window_start] is the prologue. *)

type t = {
  graph : Mimd_ddg.Graph.t;
  machine : Mimd_machine.Config.t;
  prologue : Schedule.entry list;
      (** entries with [start < window_start], ascending start *)
  body : Schedule.entry list;
      (** entries with [window_start <= start < window_start + height],
          ascending start *)
  window_start : int;
  height : int;  (** cycles per repetition, >= 1 *)
  iter_shift : int;  (** iterations completed per repetition, >= 1 *)
}

val rate : t -> float
(** Steady-state cost in cycles per iteration: [height / iter_shift].
    Compare against {!Mimd_ddg.Reach.recurrence_bound} (the
    machine-independent lower bound) and against the sequential cost
    (the DOACROSS upper bound). *)

val nodes_per_repetition : t -> int
(** [List.length body] — each loop node appears exactly [iter_shift]
    times when the pattern is exact; the tests assert this. *)

val expand : t -> iterations:int -> Schedule.t
(** Concrete schedule for a loop of [iterations] iterations: prologue,
    then as many shifted copies of the body as needed, dropping
    instances of iterations [>= iterations].  The result is a complete,
    valid schedule of exactly the requested iterations (test-enforced).
    @raise Invalid_argument if [iterations <= 0]. *)

val expand_entries : t -> iterations:int -> Schedule.entry list
(** The entries of {!expand}, in no particular order, without freezing
    them into a schedule.
    @raise Invalid_argument if [iterations <= 0]. *)

val makespan : t -> iterations:int -> int
(** Makespan of {!expand t ~iterations}, computed in O(pattern) from
    the closed form: each entry's last repetition below [iterations]
    (test-checked against the expansion).
    @raise Invalid_argument if [iterations <= 0]. *)

val utilization : t -> float
(** Busy share of the steady state: total body latency over
    [processors * height].  1.0 means no idle cycles in the pattern. *)

val pp : Format.formatter -> t -> unit
(** Pattern summary plus the body rendered as a grid. *)
