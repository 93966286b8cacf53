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
      optimized program — the lowered evaluator run inline
      ({!Mimd_runtime.Exec_compiled.run_inline}), the forked-socket
      runtime ({!socket_backend}) and the compiled real-domain runtime
      ({!Mimd_runtime.Exec_compiled.run}) — must match the sequential
      spec ({!Mimd_loop_ir.Interp.instance_values}) instance by
      instance, bit for bit.

    Each case draws its own fan-out (diamond-shaped dependences, or a
    pure statement chain) and machine shape ([p], [k], trip count), so
    one seed covers every dimension.  Failures
    are shrunk by QCheck to a minimal loop and dumped as a replayable
    loop-IR file ([# key: value] headers carry the machine shape; the
    lexer treats them as comments, so the file parses as is).  The
    {!fault} injection knob exists to prove the oracle has teeth: each
    fault applies to every case, and the harness must catch it. *)

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

type case = {
  loop : Mimd_loop_ir.Ast.loop;  (** flat, distances in [{0, 1}] *)
  processors : int;
  comm : int;  (** the paper's [k] *)
  iterations : int;  (** trip count for scheduling and execution *)
}

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

val check_case :
  ?fault:fault -> ?runtime:bool -> ?window:int -> case -> (unit, string) result
(** The oracle for one case, checks in this order: the schedule (under
    [Hasten_dependent], the broken one), the pattern, the base
    program; {!Mimd_codegen.Comm_opt.run} with coalescing [window]
    (when omitted, [1 + iterations mod 4], a deterministic function of
    the case so replays coalesce exactly as the original run did) and
    the optimized program; then the value legs, each compared instance
    by instance against {!Mimd_loop_ir.Interp.instance_values}: base
    and optimized inline (the base run also vs the interpreter's final
    memory); with [runtime] (default true) the optimized program on
    the socket backend, then base and optimized on real domains.  The
    domain legs run in a forked child while {!socket_backend} is
    installed, so the caller stays fork-safe; otherwise in-process.
    Never raises: pipeline exceptions are returned as [Error].  Validation runs
    {e before} any execution, so a broken schedule or protocol is
    reported without ever running its programs. *)

val socket_backend :
  (loop:Mimd_loop_ir.Ast.loop ->
  program:Mimd_codegen.Program.t ->
  (((int * int) * float) list, string) result)
  option
  ref
(** The forked-socket executor, injected from above this library in
    the dependency graph (mimd_dist cannot be a dependency here —
    it already depends on mimd_check through mimd_server).  [mimdloop]
    installs it at startup; [None] skips the socket leg and runs the
    domain leg in-process. *)

val run : config -> outcome
(** Generate, check, shrink, dump.  A counterexample that cannot be
    written is still reported as [Failed], with [file = None] and the
    write error appended to the reason. *)

val render_case : case -> string
(** The replayable file format: [#]-comment headers (processors,
    comm, iterations) followed by the loop source. *)

val dump_case : ?name:string -> dir:string -> reason:string -> case -> string
(** Write {!render_case} (plus the failure reason as a comment) under
    [dir], creating it and its parents if missing; returns the path.  [name] defaults to
    ["mimd-fuzz-counterexample.loop"]. *)

val load_case : string -> case
(** Parse a dumped counterexample (or any loop-IR file; missing
    headers default to 2 processors, k = 2, 10 iterations).  An
    [# oracle: pipeline|comm|exec] header, written by older dumps, is
    accepted and ignored: every case replays through the one oracle.
    @raise Failure naming the value of any other [# oracle:] header,
    or naming a [# matrix:] header (older dumps of cases priced with a
    per-link matrix, which no longer exists).
    @raise Mimd_loop_ir.Parser.Error / [Sys_error] as reading does. *)

val describe : outcome -> string
