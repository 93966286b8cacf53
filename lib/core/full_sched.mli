(** The complete scheduling pipeline (paper Figure 6).

    1. classify the nodes ({!Classify});
    2. schedule the Cyclic subset with {!Cyclic_sched} on the machine's
       processors, obtaining the pattern;
    3. schedule the Flow-in subset on [ceil (L / H)] additional
       processors ({!Flow_sched}), delaying the Cyclic core just enough
       for iteration-0 inputs to arrive;
    4. schedule the Flow-out subset symmetrically on its own additional
       processors.

    The Section-3 heuristic is available as the [Folded] strategy: when
    a Cyclic processor has enough idle slots, the non-Cyclic nodes are
    folded into them instead of taking extra processors — formalised
    here by running the same greedy policy over the {e whole} graph on
    the Cyclic processor count, which fills exactly those idle slots.
    [Auto] keeps the fold when it costs at most [fold_tolerance] extra
    makespan over the Separate schedule (default 5%).  It solves the
    pattern once and prices Separate from below first: by Theorem 1 the
    Separate schedule contains the pattern's expansion, shifted by
    [startup_shift >= 0], so {!Pattern.makespan} bounds its makespan
    from below, and when the fold is within tolerance of that bound
    Separate is never built.  The decision is identical to building
    both (test-enforced); a [compile.auto] trace instant records it. *)

type strategy = Separate | Folded | Auto

val default_strategy : strategy
(** [Auto]: what {!run} and {!finish} use without [?strategy]. *)

val default_fold_tolerance : float
(** [0.05]: the default [?fold_tolerance]. *)

val default_max_iterations : int
(** [1024]: the default [?max_iterations].  These three constants are
    the whole strategy part of the compile service's cache key
    ({!Mimd_runtime.Schedule_cache.fingerprint}). *)

type t = {
  schedule : Schedule.t;
      (** complete schedule of the whole graph over all processors
          used, for the requested trip count *)
  classification : Classify.t;
  pattern : Pattern.t option;
      (** steady-state pattern of the Cyclic core, in the {e Cyclic
          subgraph's} node ids ([None] for DOALL loops, which have no
          Cyclic core) *)
  cyclic_old_of_new : int array;
      (** Cyclic-subgraph node id -> original node id *)
  cyclic_processors : int;
  flow_in_processors : int;
  flow_out_processors : int;
  startup_shift : int;  (** cycles the Cyclic core was delayed to wait
                            for Flow-in data *)
  folded : bool;  (** the Section-3 heuristic was applied *)
}

type prepared = {
  unwound : Mimd_ddg.Graph.t;  (** the graph after {!Mimd_ddg.Unwind.normalize} *)
  copies : int;  (** iterations of the original loop per unwound iteration *)
  cls : Classify.t;
}
(** The machine-independent prefix of the pipeline: unwinding and the
    Flow-in/Cyclic/Flow-out classification depend only on the graph.
    A recompile that changes only the machine (a [k] edit) or the trip
    count can reuse a [prepared] and
    skip straight to Cyclic-sched — that is what
    [Mimd_tune.Incr] caches. *)

val prepare : graph:Mimd_ddg.Graph.t -> unit -> prepared
(** Unwind and classify (traced as [compile.unwind] and
    [compile.classify], exactly as {!run} does). *)

val finish :
  ?strategy:strategy ->
  ?fold_tolerance:float ->
  ?max_iterations:int ->
  prepared:prepared ->
  machine:Mimd_machine.Config.t ->
  iterations:int ->
  unit ->
  t
(** The rest of the pipeline: Cyclic-sched, Flow-in/Flow-out, fold
    decision.  [run] is literally
    [finish ~prepared:(prepare ~graph ())]. *)

val run :
  ?strategy:strategy ->
  ?fold_tolerance:float ->
  ?max_iterations:int ->
  graph:Mimd_ddg.Graph.t ->
  machine:Mimd_machine.Config.t ->
  iterations:int ->
  unit ->
  t
(** Schedule [iterations] iterations of the loop.  [machine.processors]
    is the Cyclic-core processor budget; Flow-in/Flow-out processors
    come on top (strategy [Separate]).  Distances greater than one are
    reduced with {!Mimd_ddg.Unwind.normalize} automatically; in that
    case the returned structures talk about the {e unwound} loop, whose
    iteration counts are scaled accordingly (and an extra partial
    unwound iteration may be scheduled to cover the requested trip
    count).  The result is not validated here: the independent audit
    is a separate call ([Mimd_check.Fuzz.compile], or
    {!Schedule.validate} for the in-layer check).
    @raise Invalid_argument on non-positive [iterations].
    @raise Cyclic_sched.No_pattern when the pattern search exceeds
    [max_iterations]. *)

val parallel_time : t -> int
(** Makespan of the complete schedule. *)

val output_fingerprint : t -> string
(** Canonical 64-bit FNV-1a digest (16 hex chars) of the observable
    result: the sorted entry stream, the processor split, and the
    pattern shape.  Identical schedules digest identically regardless
    of the order the scheduler produced their entries in; the
    determinism tests and the CI golden diff compare these strings. *)

val total_processors : t -> int

val report : t -> string
(** Multi-line human-readable summary: classification sizes, pattern
    rate, processors, makespan. *)
