(** Performance metrics used throughout the evaluation.

    The paper's headline metric is {e percentage parallelism}
    [Sp = (s - p) / s * 100] with [s] the sequential and [p] the
    parallel execution time, following [Cytron84].  (The paper's inline
    rendering "(s - p/s) * 100" is a typesetting slip: all reported
    values lie in [\[0, 100\]] and match [(s - p)/s * 100].) *)

val percentage_parallelism : sequential:int -> parallel:int -> float
(** [Sp]; 0 when [parallel >= sequential] never clamps — a slowdown
    yields a negative value, which the random-loop tables preserve.
    @raise Invalid_argument when [sequential <= 0]. *)

val speedup : sequential:int -> parallel:int -> float
(** [s / p].  @raise Invalid_argument when [parallel <= 0]. *)

val sequential_time : Mimd_ddg.Graph.t -> iterations:int -> int
(** One-processor execution time: iterations x total body latency. *)

type comparison = {
  label : string;
  sequential : int;
  ours : int;  (** parallel time of the pattern-based schedule *)
  baseline : int;  (** parallel time of the baseline (e.g. DOACROSS) *)
}

val ours_sp : comparison -> float
val advantage : comparison -> float
(** [ours_sp] over the baseline's Sp; [infinity] when the baseline
    achieved no parallelism at all (its Sp [<= 0] with [ours_sp > 0]),
    [nan] when both are 0. *)

val pp_comparison : Format.formatter -> comparison -> unit
