(** Processor-count selection for the Cyclic core.

    The paper assumes "a sufficient number of processors" and leaves
    choosing [p] to the user.  This pass answers the natural question:
    the smallest [p] whose pattern already runs at (close to) the best
    achievable rate.  Because the greedy rate is monotone only in
    tendency — an extra processor occasionally tempts the greedy into a
    worse placement — the search scans a range rather than bisecting,
    and reports the full rate curve. *)

type point = {
  processors : int;
  rate : float;  (** pattern cycles/iteration at this [p] *)
  height : int;
  iter_shift : int;
}

type t = {
  curve : point list;  (** ascending processor count *)
  chosen : point;  (** cheapest within 2% of the best rate *)
  bound : float;  (** the machine-independent recurrence bound *)
}

val search :
  ?max_processors:int ->
  ?max_iterations:int ->
  graph:Mimd_ddg.Graph.t ->
  comm_estimate:int ->
  unit ->
  t
(** Solve the Cyclic pattern for p = 1 .. [max_processors] (default 8)
    and pick the smallest p whose rate is within 2% of the best rate
    seen.  The graph must satisfy
    {!Cyclic_sched.solve}'s preconditions.
    @raise Cyclic_sched.No_pattern if any p in range fails to settle. *)

val render : t -> string
