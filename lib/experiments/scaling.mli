(** Extension experiments beyond the paper's evaluation.

    Three questions the paper leaves open, answered with the same
    machinery:

    - {b processor scaling}: how does each scheduler use extra
      processors on structures with known ideal parallelism (the
      synthetic families of {!Mimd_ddg.Gen}) and on the filter?
    - {b granularity} (paper footnote 3): statement-level vs
      operation-level nodes ({!Mimd_loop_ir.Op_graph}) on expression-heavy
      loops;
    - {b topology}: a schedule built with the uniform-[k] estimate,
      executed on ring / mesh / hypercube interconnects where distant
      processors really cost more. *)

val processors : unit -> string
(** Sp versus processor count, ours / DOACROSS. *)

val grain : unit -> string
(** Cycles/iteration at both granularities, with node counts. *)

val topology : unit -> string
(** Simulated Sp of the uniform-k schedule under each interconnect. *)

val ordering : unit -> string
(** Ready-queue tie-break ablation: lexicographic vs critical-path pop
    order (paper footnote 7 only demands consistency; this measures
    whether the choice matters). *)

val unrolling : unit -> string
(** Unroll-factor search on the worked examples: cycles per original
    iteration at factors 1..4. *)

val estimate : unit -> string
(** Compile-time misestimation: schedules built with k_est in
    {0,1,3,5,7} all executed on a machine whose true cost is k = 3 —
    the mirror image of the paper's mm experiment (there the estimate
    was fixed and the run time fluctuated). *)

val kernels : unit -> string
(** The textual kernel pack through the whole pipeline: classification
    sizes, both schedulers' Sp, and a value-level correctness verdict
    per kernel. *)

val all : unit -> (string * string) list
