(** Independent schedule validator — the trusted oracle.

    Every layer of the pipeline emits or consumes a {!Mimd_core.Schedule.t},
    but until this library nothing {e outside} the code that produced a
    schedule ever checked it: the scheduler's own feasibility test
    ({!Mimd_core.Schedule.validate}) shares its cost model, its edge
    iteration and its interval bookkeeping with the scheduler it is
    meant to audit.  This module re-verifies the paper's correctness
    conditions (Section 2.2, Defn. 1-3, and the Theorem-1 claim that
    pattern repetition preserves dependences) from scratch, with
    deliberately different machinery:

    - {b (a) dependences} — for every DDG edge u -> v of distance d and
      every scheduled iteration i, start(v, i) >= finish(u, i - d),
      plus the per-edge communication estimate when the two instances
      sit on different processors.  Checked edge-by-edge over the
      iteration space, not entry-by-entry over predecessor lists.
    - {b (b) exclusivity and occupancy} — an explicit cycle-by-cycle
      occupancy map per processor: one dense int array over that
      processor's busy range [first start, last finish), each cell
      naming the instance that claimed it.  An instance of latency L
      claims exactly L cells, and no cell is claimed twice.  This is
      deliberately not the scheduler's sorted-interval scan.
    - {b (c) pattern re-rolling} — the compiled pattern, expanded for a
      spread of trip counts (crossing several repetition boundaries),
      must re-satisfy (a)-(b) and must contain every node exactly
      [iter_shift] times per repetition.
    - {b (d) protocol} — the emitted Send/Recv programs, run by
      {!Mimd_codegen.Program.simulate} over links bounded at the real
      runtime's channel capacity
      ({!Mimd_runtime.Value_run.default_channel_capacity}), must drain
      completely: no deadlock, no send blocked forever on a full
      channel, no recv waiting for a message nobody sends, and every
      operand held where it is used. *)

type issue =
  | Overlap of {
      proc : int;
      cycle : int;
      a : Mimd_core.Schedule.instance;
      b : Mimd_core.Schedule.instance;
    }  (** two instances claim the same (processor, cycle) cell *)
  | Dependence of {
      edge : Mimd_ddg.Graph.edge;
      pred : Mimd_core.Schedule.entry;
      succ : Mimd_core.Schedule.entry;
      comm : int;  (** communication cycles charged on this edge *)
      earliest : int;  (** smallest legal start of [succ] *)
    }
  | Missing of Mimd_core.Schedule.instance
      (** instance absent from a schedule that claims the full
          iteration window *)
  | Pattern_shape of string
      (** structural defect of a pattern (bad height, body outside the
          window, wrong instance multiplicity, ...) *)
  | Reroll of { iterations : int; issue : issue }
      (** re-rolling the pattern for this trip count violated (a)-(b) *)
  | Protocol_defect of Mimd_codegen.Program.defect
      (** static send/recv pairing defect *)
  | Protocol_deadlock of {
      capacity : int;
      delivered : int;  (** messages consumed before the stall *)
      stuck : (int * string) list;
          (** per blocked processor: the instruction it cannot retire *)
    }
  | Protocol_failure of Mimd_codegen.Program.failure
      (** the simulation stopped short of a deadlock: an operand missing
          at a Compute or Send, a frame received with other tags than
          it was sent with, or a frame nobody receives *)

type report = {
  issues : issue list;
  counters : (string * int) list;
      (** labelled work counters ("dependence constraints", ...) so a
          clean report still shows what was examined *)
}

val ok : report -> bool
val merge : report list -> report

val schedule : ?complete:bool -> Mimd_core.Schedule.t -> report
(** Checks (a) and (b).  With [complete] (default true) every node of
    every iteration below the schedule's trip count must be present —
    the contract of {!Mimd_core.Full_sched} and {!Mimd_core.Pattern.expand}
    results.  Pass [~complete:false] for pattern slices, whose
    out-of-window predecessors are legitimately absent. *)

val pattern : ?trips:int list -> Mimd_core.Pattern.t -> report
(** Check (c): shape invariants plus {!schedule} on the expansion for
    each trip count ([trips] defaults to a spread crossing several
    repetition boundaries, scaled by the pattern's iteration shift). *)

val program : ?capacity:int -> Mimd_codegen.Program.t -> report
(** Check (d): {!Mimd_codegen.Program.check}'s static pairing, then
    {!Mimd_codegen.Program.simulate} at the given channel [capacity]
    (default {!Mimd_runtime.Value_run.default_channel_capacity}; a
    send into a full channel blocks, as a writer parks on a full
    {!Mimd_runtime.Mesh_sock} ring, and every ring holds at least that
    many frames).  A deadlock is
    {!Protocol_deadlock}; any other simulation failure is
    {!Protocol_failure}.
    @raise Invalid_argument if [capacity < 1]. *)

val full : ?trips:int list -> Mimd_core.Full_sched.t -> report
(** Everything: {!schedule} on the complete schedule, {!pattern} on
    the detected pattern (if any), {!program} at the default capacity
    on the code generated from the schedule. *)

val render : names:(int -> string) -> report -> string
(** Multi-line human-readable report: counters first, then issues. *)

val error_of : names:(int -> string) -> report -> (unit, string) result
(** [Ok ()] iff no issues; otherwise the first issue rendered, with a
    count of the rest. *)

val break_dependence : Mimd_core.Schedule.t -> Mimd_core.Schedule.t option
(** Testing aid: hasten one dependent instance so that exactly the
    paper's dependence condition is violated (its new start is one
    cycle before the earliest legal start).  [None] when no scheduled
    instance has an in-window predecessor constraint to violate.  Used
    by the negative tests and [mimdloop check --broken]. *)
