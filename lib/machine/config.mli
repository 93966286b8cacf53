(** MIMD machine model.

    The paper targets asynchronous MIMD machines with non-zero
    inter-processor communication cost.  At {e compile time} the
    scheduler works from an estimated cost: a global upper bound [k],
    optionally refined per dependence edge (each edge may cost less
    than [k] but never more — Section 2.3's assumption).  At {e run
    time} the simulated machine may inflate each message by the
    fluctuation model of {!Mimd_machine.Fluctuation}. *)

type t = {
  processors : int;  (** number of processors, >= 1 *)
  comm_estimate : int;  (** the paper's [k]: compile-time upper bound on
                            communication cost, >= 0 *)
}

val make : processors:int -> comm_estimate:int -> t
(** @raise Invalid_argument on non-positive processor count or negative
    [k]. *)

val default : t
(** Two processors, k = 2 — the configuration of the paper's worked
    examples (Figures 7, 9, 11, 12). *)

val edge_cost : t -> Mimd_ddg.Graph.edge -> int
(** Compile-time estimated cost of communicating along an edge between
    {e distinct} processors: the edge's override if present (clamped to
    [k]), else [k].  Communication within a processor is free. *)

val pp : Format.formatter -> t -> unit
