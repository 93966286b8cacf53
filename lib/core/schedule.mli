(** Concrete schedules: placements of node instances on processors.

    A {e node instance} is one execution of a loop-body node in a
    particular iteration, written [A2] for node A of iteration 2 as in
    the paper's figures.  A schedule assigns each instance a processor
    and a start cycle; {!validate} checks the two compile-time
    feasibility conditions of Section 2.2:

    - processor exclusivity: the busy intervals on one processor never
      overlap;
    - dependences with communication: for every dependence edge
      u -> v of distance d, instance (v, i) starts no earlier than
      finish of (u, i - d), plus the estimated communication cost of
      the edge when the two instances sit on distinct processors. *)

type instance = { node : int; iter : int }

val compare_instance : instance -> instance -> int
(** Lexicographic by (iter, node) — the consistent order used
    everywhere a tie must be broken (paper footnote 7). *)

type entry = { inst : instance; proc : int; start : int }

(** A dense table of entries over an instance window: instance
    [(node, iter)] with [0 <= node < nodes] and [iter_lo <= iter <
    iter_lo + span] lives at [(iter - iter_lo) * nodes + node], so a
    lookup is one bounds check and one array read, with nothing hashed.
    A schedule indexes its own instances with one; the scheduling
    passes that look instances up while they build entries
    ({!Full_sched}, {!Flow_sched}) use the same table. *)
module Index : sig
  type t

  val create : nodes:int -> iter_lo:int -> span:int -> t
  (** An empty table over [nodes] x [[iter_lo, iter_lo + span)]. *)

  val of_entries : nodes:int -> entry list -> t
  (** A table over the iterations [entries] span, holding them; a later
      entry replaces an earlier one of the same instance. *)

  val add : t -> entry -> unit
  (** Store an entry, replacing any earlier one of its instance.
      @raise Invalid_argument if the instance lies outside the window. *)

  val find : t -> instance -> entry option
  (** [None] for absent instances and for any instance outside the
      window. *)

  val mem : t -> instance -> bool
end

type t

val make : graph:Mimd_ddg.Graph.t -> machine:Mimd_machine.Config.t -> entry list -> t
(** Freeze an entry list into a schedule.  @raise Invalid_argument on
    duplicate instances, negative start cycles, or processor ids
    outside the machine. *)

val check : graph:Mimd_ddg.Graph.t -> machine:Mimd_machine.Config.t -> entry list -> unit
(** The checks of {!make} without building the schedule: raises exactly
    what [make] would raise on the same arguments. *)

val graph : t -> Mimd_ddg.Graph.t
val machine : t -> Mimd_machine.Config.t
val entries : t -> entry list
(** Ascending (start, proc). *)

val entries_on : t -> int -> entry list
(** Entries of one processor, ascending start. *)

val find : t -> instance -> entry option
(** O(1): one bounds check and one read of a dense array indexed by
    instance over the iterations the schedule spans. *)

val is_scheduled : t -> instance -> bool

val proc_at : t -> node:int -> iter:int -> int
(** Processor of instance [(node, iter)], or [-1] when it is not
    scheduled: {!find} without the option or the instance record. *)

val start_at : t -> node:int -> iter:int -> int
(** Start cycle of instance [(node, iter)], or [-1] when it is not
    scheduled, allocating nothing, as {!proc_at}. *)

val finish : t -> entry -> int
(** [start + latency]. *)

val makespan : t -> int
(** Largest finish time; 0 for the empty schedule. *)

val instance_count : t -> int

val iterations : t -> int
(** 1 + largest iteration index present; 0 for the empty schedule. *)

val busy_cycles_on : t -> int -> int
(** Total busy cycles of one processor. *)

val utilization : t -> float
(** Busy cycles / (processors * makespan); 0 for empty schedules. *)

type violation =
  | Overlap of entry * entry
  | Dependence_violated of { pred : entry; succ : entry; required_start : int }
  | Missing_predecessor of { succ : entry; pred_inst : instance }

val violations : t -> violation list
(** All compile-time feasibility violations.  A predecessor instance
    with a negative iteration index (reaching before the first
    iteration) is exempt, as is a predecessor beyond the scheduled
    window when [t] was built from a pattern slice — callers that
    require closedness should check {!validate ~closed:true}. *)

val validate : ?closed:bool -> t -> (unit, string) result
(** [Ok ()] iff no violations.  With [~closed:true] (default), a
    scheduled instance whose in-window predecessor is absent is an
    error; with [~closed:false] such entries are only constrained by
    the predecessors actually present (used when checking pattern
    slices). *)

val pp_violation : names:(int -> string) -> Format.formatter -> violation -> unit

val render_grid : ?max_cycles:int -> t -> string
(** The paper's figure style: one row per cycle, one column per
    processor, cells like [A2]; multi-cycle operations print their
    name on the first row and [|] on continuation rows. *)

val pp : Format.formatter -> t -> unit
