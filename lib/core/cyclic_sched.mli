(** The communication-aware greedy scheduler for Cyclic subsets
    (paper Figure 4, algorithm Cyclic-sched).

    Node instances of the unboundedly-unwound loop are kept in a task
    queue ordered by the consistent (iteration, node id) order; each
    popped instance is placed on the processor that can start it
    earliest — first-fit into that processor's timeline at or after the
    instance's data-ready time, where data produced on another
    processor arrives only after the edge's estimated communication
    cost (at most the machine's [k]).  Ties go to the lowest processor
    index ("the first minimum", Figure 4).

    After every placement the scheduler looks for a repeating
    {e configuration} ({!Config_window}) among the cycles that are
    already {e final} — cycles no queued or future instance can reach,
    so first-fit can no longer change them.  Two identical
    configurations delimit a candidate pattern, which is then verified
    by scheduling one more period and comparing (belt and braces on top
    of Theorem 1); a verified pattern whose body holds every node
    exactly [iter_shift] times is returned.  (A node that runs ahead
    of the rest can repeat identical windows while its own instances
    fall outside the slice; such a candidate is rejected and the search
    goes on.)

    Preconditions: dependence distances in [{0, 1}] (use
    {!Mimd_ddg.Unwind.normalize} first) and an acyclic distance-0
    subgraph.  [solve] additionally requires every node to have at
    least one predecessor — true of every Cyclic subset — because a
    predecessor-less node admits unboundedly many ready instances and
    its ideal schedule keeps accelerating instead of settling;
    Flow-in/Flow-out handling lives in {!Flow_sched}. *)

type order = Lexicographic | Critical_path
(** Ready-queue tie-break inside one iteration (paper footnote 7
    requires only consistency).  [Lexicographic] is ascending node id;
    [Critical_path] pops the node with the longest remaining
    distance-0 chain first — the classic list-scheduling priority,
    measured against the default in the ablation experiments. *)

exception No_pattern of string
(** Raised when no pattern emerged within the iteration budget.  Real
    Cyclic cores hit it at any budget: 10 of the 25 Table-1 random
    cores (p = 4, k = 3) still have none at 4096 iterations — seven
    disconnected, three with SCCs of different recurrence bounds
    ([mimdloop stats --random] lists them).  So do non-Cyclic inputs
    whose ideal schedule keeps accelerating. *)

type stats = {
  pops : int;  (** instances scheduled before detection *)
  iterations_touched : int;  (** highest iteration index + 1 *)
  configurations_checked : int;
  detection_cycle : int;  (** cycle of the second (matching) window *)
  candidates_rejected : int;
      (** candidates that failed verification or lacked a node *)
}

type result = { pattern : Pattern.t; stats : stats }

val solve :
  ?max_iterations:int ->
  ?order:order ->
  graph:Mimd_ddg.Graph.t ->
  machine:Mimd_machine.Config.t ->
  unit ->
  result
(** Find the steady-state pattern.  [max_iterations] (default 1024)
    bounds how many iterations may be unwound before giving up.  Every
    candidate is verified: one extra period is re-scheduled and must
    equal the shifted pattern body, so false positives are rejected.
    @raise No_pattern when the budget is exhausted.
    @raise Invalid_argument when preconditions are violated. *)

val schedule_iterations :
  ?order:order ->
  graph:Mimd_ddg.Graph.t ->
  machine:Mimd_machine.Config.t ->
  iterations:int ->
  unit ->
  Schedule.t
(** The same greedy policy run over a concrete trip count: schedules
    exactly the instances of iterations [0 .. iterations-1] and stops.
    This is what execution-time measurements use.
    @raise Invalid_argument on non-positive [iterations] or violated
    preconditions. *)

val greedy_entries :
  ?order:order ->
  graph:Mimd_ddg.Graph.t ->
  machine:Mimd_machine.Config.t ->
  iterations:int ->
  unit ->
  Schedule.entry list * int
(** The run {!schedule_iterations} freezes: its entries, in the
    ascending (start, proc) order of {!Schedule.entries}, and their
    makespan — for a caller that decides
    whether to keep the schedule before paying for {!Schedule.make}.
    The per-instance loop allocates nothing: placements live in int
    tables and the entries are built once, at the end.
    @raise Invalid_argument as {!schedule_iterations}. *)

(** Internal slot-probing primitives, exposed for the unit tests only.
    A timeline is one processor's per-cycle occupancy arena with
    pairwise-disjoint busy intervals and a next-free skip pointer per
    busy cell. *)
module For_tests : sig
  type timeline

  val empty_timeline : unit -> timeline

  val place : timeline -> key:int -> start:int -> len:int -> unit
  (** Occupies [len] cells from [start], owned by [key].  The caller is
      responsible for keeping intervals disjoint, as the scheduler
      does. *)

  val first_fit : timeline -> ready:int -> len:int -> int
  (** Earliest start >= [ready] where a [len]-cycle interval fits.  The
      skip pointers carry it over a run of busy cells in amortised
      near-constant time, however many intervals the run holds. *)

  val overlapping :
    timeline ->
    entry_of:(int -> Schedule.entry) ->
    max_latency:int ->
    top:int ->
    bottom:int ->
    Schedule.entry list
  (** Entries whose execution interval intersects [\[top, bottom\]];
      [entry_of] turns an owner key back into its entry. *)
end
