(** Cross-layer property-fuzzing oracle.

    Hundreds of seeded random loops and machine shapes are driven
    through the whole pipeline — dependence analysis, full scheduling,
    code generation — and every stage's output is audited:

    + the schedule by the independent checker ({!Validate.schedule});
    + the steady-state pattern re-rolled for several trip counts
      ({!Validate.pattern});
    + the emitted message protocol ({!Validate.program});
    + the computed {e values}, differentially: the simulated parallel
      execution ({!Mimd_sim.Value_exec}) and the compiled real-domain
      runtime ({!Mimd_runtime.Exec_compiled}) must both match the
      sequential interpreter ({!Mimd_loop_ir.Interp}) bit for bit, and
      must match each other instance by instance.

    Failures are shrunk by QCheck to a minimal loop and dumped as a
    replayable loop-IR file ([# key: value] headers carry the machine
    shape; the lexer treats them as comments, so the file parses as
    is).  The {!fault} injection knob exists to prove the oracle has
    teeth: [Hasten_dependent] moves one dependent instance a single
    cycle too early after scheduling, and the harness must catch it. *)

type fault =
  | No_fault
  | Hasten_dependent
      (** after scheduling, hasten one dependent instance to one cycle
          before its earliest legal start ({!Validate.break_dependence});
          the oracle is expected to flag every such case *)
  | Keep_extra_send
      (** comm oracle only: make {!Mimd_codegen.Comm_opt} keep one
          frame's Send but drop its Recv — the footprint of an unsound
          elision; {!Validate.program} must reject the result *)

type oracle =
  | Pipeline  (** the cross-layer oracle of {!check_case} *)
  | Comm  (** the comm-opt differential oracle of {!check_comm_case} *)

type case = {
  loop : Mimd_loop_ir.Ast.loop;  (** flat, distances in [{0, 1}] *)
  processors : int;
  comm : int;  (** the paper's [k] *)
  iterations : int;  (** trip count for scheduling and execution *)
  oracle : oracle;  (** which oracle this case replays through *)
  matrix : bool;
      (** price (and simulate) communication with a calibrated per-link
          matrix instead of the uniform scalar [k]; the matrix itself
          is a deterministic function of the case (entries in
          [\[0, comm\]], asymmetric), so replays need no extra state *)
}

type config = {
  count : int;  (** random cases to try *)
  seed : int;  (** generator seed — same seed, same cases *)
  fault : fault;
  runtime : bool;
      (** also execute every case on real OCaml 5 domains (slower);
          the simulator differential always runs *)
  out_dir : string option;
      (** where to dump the shrunk counterexample on failure *)
  oracle : oracle;  (** which oracle {!run} drives the cases through *)
  matrix : bool;  (** generate every case in per-link matrix mode *)
}

val default_config : config
(** 200 cases, seed 0, no fault, runtime differential on, no dump,
    pipeline oracle, uniform scalar-[k] pricing. *)

type outcome =
  | Passed of int  (** all cases passed; the count actually run *)
  | Failed of {
      case : case;  (** the {e shrunk} minimal failing case *)
      reason : string;
      file : string option;  (** dumped counterexample, if requested *)
    }

val check_case : ?fault:fault -> ?runtime:bool -> case -> (unit, string) result
(** The oracle for one case.  Never raises: pipeline exceptions are
    returned as [Error].  With a fault injected, validation runs
    {e before} any execution, so a broken schedule is reported without
    ever running its programs. *)

val check_comm_case :
  ?fault:fault -> ?runtime:bool -> ?window:int -> case -> (unit, string) result
(** The comm-opt differential oracle for one case: compile, optimize
    with {!Mimd_codegen.Comm_opt.run} (coalescing [window]; when
    omitted it defaults to [1 + iterations mod 4], a deterministic
    function of the case so replays coalesce exactly as the original
    run did),
    require {!Validate.program} to accept the optimized program, then
    compare it value-by-value — optimized vs unoptimized on the
    simulator, optimized vs the sequential interpreter, and (with
    [runtime]) optimized on the socket backend (via {!socket_backend}),
    then both the unoptimized and the optimized program on real
    domains ({!Mimd_runtime.Exec_compiled}, in a forked child so the
    caller stays fork-safe), each against its own simulated run, every
    instance bit-for-bit.  With
    [Keep_extra_send] injected the validator must {e reject} the
    program, which surfaces as the case failing. *)

val socket_backend :
  (loop:Mimd_loop_ir.Ast.loop ->
  program:Mimd_codegen.Program.t ->
  (((int * int) * float) list, string) result)
  option
  ref
(** The forked-socket executor, injected from above this library in
    the dependency graph (mimd_dist cannot be a dependency here —
    it already depends on mimd_check through mimd_server).  [mimdloop]
    installs it at startup; [None] skips the socket leg. *)

val run : config -> outcome
(** Generate, check, shrink, dump. *)

val render_case : case -> string
(** The replayable file format: [#]-comment headers (oracle,
    processors, comm, iterations, matrix mode) followed by the loop
    source. *)

val dump_case : ?name:string -> dir:string -> reason:string -> case -> string
(** Write {!render_case} (plus the failure reason as a comment) under
    [dir]; returns the path.  [name] defaults to
    ["mimd-fuzz-counterexample.loop"]. *)

val load_case : string -> case
(** Parse a dumped counterexample (or any loop-IR file; missing
    headers default to 2 processors, k = 2, 10 iterations, the
    pipeline oracle).  An [# oracle: exec] header — the retired
    compiled-vs-interpreted oracle — replays through {!Comm}.
    @raise Failure naming the value of any other unknown
    [# oracle:] header.
    @raise Mimd_loop_ir.Parser.Error / [Sys_error] as reading does. *)

val describe : outcome -> string
