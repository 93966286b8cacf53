(** The property-fuzzing oracle: one generator, one {!check_case}.

    Hundreds of seeded random loops and machine shapes are driven
    through the whole pipeline — dependence analysis, full scheduling,
    code generation, the synchronization-minimizing rewrite
    ({!Mimd_codegen.Comm_opt}) — and every stage's output is audited:

    + the schedule by the independent checker ({!Validate.schedule});
    + the steady-state pattern re-rolled for several trip counts
      ({!Validate.pattern});
    + the emitted message protocol, before and after the rewrite
      ({!Validate.program});
    + the computed {e values}: every executor of the base and the
      optimized program — the lowered evaluator run inline as
      {!Mimd_codegen.Program.simulate}'s value step
      ({!Mimd_runtime.Exec_compiled.run_inline}), the spawned-process
      runtime over Unix sockets or TCP ({!socket_backend}) and the
      compiled real-domain runtime ({!Mimd_runtime.Exec_compiled.run})
      — must match the sequential spec
      ({!Mimd_runtime.Value_run.spec}) instance by instance, bit for
      bit, table against table.

    The first three audits are {!compile}, the one audited compile
    every CLI command that runs or rewrites a compiled loop shares.

    Each case draws its own fan-out (diamond-shaped dependences, or a
    pure statement chain), machine shape ([p], [k]), trip count (one
    case in five runs 100 to 120 iterations), coalescing window and
    transport, so one seed covers every dimension.  [check --fuzz],
    [check --replay] and [verify] all run {!check_case}.  Failures are
    shrunk by QCheck and dumped as a replayable loop-IR file
    ([# key: value] headers carry the case's shape; the lexer treats
    them as comments).  Each {!fault} applies to every case, and the
    harness must catch it. *)

type fault =
  | No_fault
  | Hasten_dependent
      (** after scheduling, hasten one dependent instance to one cycle
          before its earliest legal start ({!Validate.break_dependence});
          the oracle is expected to flag every such case *)
  | Keep_extra_send
      (** make {!Mimd_codegen.Comm_opt} keep one frame's Send but drop
          its Recv — the footprint of an unsound elision;
          {!Validate.program} must reject the result *)

type transport =
  | Unix_sockets  (** one socketpair per link *)
  | Tcp  (** loopback listeners that the members dial *)

type case = {
  loop : Mimd_loop_ir.Ast.loop;  (** flat; a distance over 1 fails {!check_case} *)
  processors : int;
  comm : int;  (** the paper's [k] *)
  iterations : int;  (** trip count for scheduling and execution *)
  window : int;  (** {!Mimd_codegen.Comm_opt.run}'s coalescing window *)
  transport : transport;  (** the link layer of the socket leg *)
}

val make_case :
  loop:Mimd_loop_ir.Ast.loop -> processors:int -> comm:int -> iterations:int -> case
(** Window [1 + iterations mod 4], Unix sockets: the defaults of a dump
    without [window] and [transport] headers. *)

type config = {
  count : int;  (** random cases to try *)
  seed : int;  (** generator seed — same seed, same cases *)
  fault : fault;
  runtime : bool;
      (** also execute every case on the socket backend (when
          installed) and on real OCaml 5 domains (slower); the inline
          legs always run *)
  out_dir : string option;
      (** where to dump the shrunk counterexample on failure (created
          if missing) *)
}

val default_config : config
(** 200 cases, seed 0, no fault, runtime differential on, no dump. *)

type outcome =
  | Passed of int  (** all cases passed; the count actually run *)
  | Failed of {
      case : case;  (** the {e shrunk} minimal failing case *)
      reason : string;
      file : string option;  (** dumped counterexample, if requested *)
    }

type compiled = {
  full : Mimd_core.Full_sched.t;
  program : Mimd_codegen.Program.t;  (** generated from the audited schedule *)
  optimized : (Mimd_codegen.Program.t * Mimd_codegen.Comm_opt.stats) option;
      (** the comm-opt rewrite of [program] and what it bought, when a
          [window] was given *)
}

val compile :
  ?fault:fault ->
  ?window:int ->
  graph:Mimd_ddg.Graph.t ->
  machine:Mimd_machine.Config.t ->
  iterations:int ->
  unit ->
  (compiled, string) result
(** The one audited compile behind {!check_case} and every [mimdloop]
    command that runs, validates or comm-opts a loop:
    {!Mimd_core.Full_sched.run} (then {!Validate.break_dependence}
    under [Hasten_dependent]); {!Validate.schedule} and
    {!Validate.pattern}; {!Mimd_codegen.From_schedule.run} and
    {!Validate.program}; with a [window], {!Mimd_codegen.Comm_opt.run}
    (with [Keep_extra_send]'s fault) and {!Validate.program} again.
    Each stage is audited, in a [compile.validate] trace span, before
    the next consumes it.  The first rejection is the [Error]: an issue
    as {!Validate.error_of} renders it, a
    {!Mimd_core.Cyclic_sched.No_pattern} message, or a cause after
    ["comm-opt self-check: "] or ["optimized program rejected: "].
    Distances are not checked: an unwound loop compiles, and the
    executors call {!Mimd_runtime.Lower.check_distances} first.
    @raise Invalid_argument on non-positive [iterations] or a negative
    [window]. *)

val check_case :
  ?fault:fault -> ?runtime:bool -> case -> (Mimd_codegen.Program.t, string) result
(** The oracle for one case; returns the base program it checked.
    Checks the dependence distances
    ({!Mimd_runtime.Lower.check_distances}), runs {!compile} with the
    case's [window], then the value legs, each instance table compared
    with {!Mimd_runtime.Value_run.check_instances} against
    {!Mimd_runtime.Value_run.spec}: base and
    optimized inline (the base run also vs the interpreter's final
    memory); with [runtime] (default true) the optimized program on
    the socket backend over the case's [transport], then base and
    optimized on real domains, in this process.  Never raises: pipeline
    exceptions are returned as [Error].  Validation runs {e before}
    any execution. *)

val socket_backend :
  (transport:transport ->
  loop:Mimd_loop_ir.Ast.loop ->
  program:Mimd_codegen.Program.t ->
  (Mimd_runtime.Value_run.instances, string) result)
  option
  ref
(** The spawned-process executor, the library's one injected hook:
    mimd_dist depends on mimd_check (through mimd_server), so this
    library cannot call it.  [mimdloop] installs it at startup; [None]
    skips the socket leg. *)

val gen_case : case QCheck2.Gen.t
(** The generator {!run} draws its cases from. *)

val run : config -> outcome
(** Generate, check, shrink, dump.  A counterexample that cannot be
    written is still reported as [Failed], with [file = None] and the
    write error appended to the reason. *)

val render_case : case -> string
(** The replayable file format: [#]-comment headers (processors,
    comm, iterations, window, transport) followed by the loop source. *)

val dump_case : ?name:string -> dir:string -> reason:string -> case -> string
(** Write {!render_case} (plus the failure reason as a comment) under
    [dir], creating it and its parents if missing; returns the path.  [name] defaults to
    ["mimd-fuzz-counterexample.loop"]. *)

val load_case : string -> (case, string) result
(** Read a dumped counterexample (or any loop-IR file) through
    {!Mimd_loop_ir.Depend.of_source}.  Missing headers default to 2
    processors, k = 2, 10 iterations, then {!make_case}'s window and
    transport; a present one must parse (processors, iterations >= 1;
    comm, window >= 0; transport [unix] or [tcp]).  An
    [# oracle: pipeline|comm|exec] header from older dumps is ignored.
    The error names an unreadable file, a front-end error, a malformed
    header, any other [# oracle:] value, or a [# matrix:] header
    (dumps of the removed per-link matrix mode). *)

val describe : outcome -> string
