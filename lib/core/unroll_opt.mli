(** Unroll-factor search.

    Section 2.1 uses unwinding only to reduce dependence distances to
    {0, 1}, but unrolling {e beyond} that is a scheduling lever: with
    [u] copies of the body per scheduling iteration the greedy sees
    more instances at once, can pack them more tightly around the
    communication latency, and the pattern's cost is amortised over
    [u] original iterations.  (The greedy is a heuristic, so more
    unrolling is not always better — the search measures, rather than
    assumes, each factor.) *)

type point = {
  factor : int;
  rate : float;  (** cycles per ORIGINAL iteration *)
  pattern : Pattern.t;  (** over the unrolled graph *)
}

type t = {
  curve : point list;  (** ascending factor *)
  chosen : point;  (** cheapest factor within 2% of the best rate *)
}

val search :
  ?max_factor:int ->
  ?max_iterations:int ->
  graph:Mimd_ddg.Graph.t ->
  machine:Mimd_machine.Config.t ->
  unit ->
  t
(** Try unroll factors 1 .. [max_factor] (default 4) on the Cyclic
    graph (distances must already be <= 1; each candidate is the
    [u]-fold {!Mimd_ddg.Unwind.unroll}) and pick the smallest whose
    rate is within 2% of the best.
    @raise Cyclic_sched.No_pattern / Invalid_argument as
    {!Cyclic_sched.solve} does. *)

val render : t -> string
