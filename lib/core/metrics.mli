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

val sequential_time : Mimd_ddg.Graph.t -> iterations:int -> int
(** One-processor execution time: iterations x total body latency. *)
