(** Reproduction of paper Table 1: 25 random loops, our scheduler vs
    DOACROSS, under run-time communication fluctuation mm in
    {1, 3, 5}.

    Protocol (Section 4): generate a random loop (40 nodes, <= 20
    lcd's, <= 20 sd's, latencies 1-3), extract its Cyclic subset,
    schedule it with both algorithms using the estimated k = 3, then
    execute both schedules on the simulated multiprocessor where each
    link's actual per-message cost is uniform in [k, k + mm - 1].  The
    entry is the percentage parallelism (sequential - parallel) /
    sequential x 100.

    Two documented deviations (see DESIGN.md): our PRNG differs from
    the authors', so per-seed rows cannot match numerically — only the
    aggregate shape (Table 1(b)) is comparable; and seeds whose Cyclic
    subset is degenerate (fewer than 6 nodes — including
    empty, on which the protocol is undefined) are skipped, scanning
    forward until [count] usable loops are found. *)

val mms : int list
(** [1; 3; 5] *)

type row = {
  seed : int;
  cyclic_nodes : int;
  ours : float array;  (** Sp per mm *)
  doacross : float array;
}

type summary = {
  ours_mean : float array;
  doacross_mean : float array;
  factor : float array;  (** ours_mean / doacross_mean per mm *)
}

val select_seeds : ?count:int -> ?params:Mimd_workloads.Random_loop.params -> unit -> int list
(** First [count] (default 25) seeds, scanning from 1, whose Cyclic
    subset has at least 6 nodes. *)

val run :
  ?iterations:int ->
  ?processors:int ->
  ?k:int ->
  ?seeds:int list ->
  ?params:Mimd_workloads.Random_loop.params ->
  unit ->
  row list * summary
(** Defaults: 100 iterations, 4 processors, k = 3 (the paper's
    estimate), seeds from {!select_seeds}. *)

val render : row list * summary -> string
(** Both sub-tables, in the paper's layout. *)
