(** Execution of {!Lower}ed programs: the runtime's one evaluator.

    The domain mesh, the Unix-socket mesh and the TCP mesh all run
    processors through {!worker}, over the {!Value_run.chans} contract,
    and fold results into the same {!Value_run.outcome}.  The
    per-instruction work is a tight match over an array of int-field
    records: operand reads are slot lookups in an unboxed
    [float array], expression evaluation is a postfix loop over a
    reusable float stack, and message endpoints and slots were bound
    at lower time.  The differential suite and [check --fuzz-comm]
    hold sequential [Interp] ≡ {!Mimd_sim.Value_exec} ≡ compiled
    bit-for-bit. *)

val worker :
  ?init:(string -> int -> float) ->
  ?scalars:(string -> float) ->
  ?tick:(unit -> unit) ->
  lowered:Lower.t ->
  proc:int ->
  chans:Value_run.chans ->
  unit ->
  ((int * int) * float) list * int
(** Execute processor [proc]'s lowered stream over any channel backend
    (the domain {!Mesh} or the [Mimd_dist] socket mesh); returns
    (computed instance values, messages sent), the per-processor input
    of {!Value_run.finalize}.  [tick] is called after every instruction
    (the watchdog progress hook). *)

val run :
  ?init:(string -> int -> float) ->
  ?scalars:(string -> float) ->
  ?watchdog:Watchdog.config ->
  ?channel_capacity:int ->
  ?lowered:Lower.t ->
  loop:Mimd_loop_ir.Ast.loop ->
  program:Mimd_codegen.Program.t ->
  unit ->
  Value_run.outcome
(** Execute [program] on [program.processors] fresh domains over the
    in-process {!Mesh}.  [loop] must be flat and its assignment count
    must match the program's graph node count.  [lowered] (e.g. from
    {!Schedule_cache.find_lowered}) skips the lowering pass; omitted,
    the program is lowered here.
    @raise Invalid_argument as {!Lower.run} does, or when [lowered]
    was built for a different processor count.
    @raise Watchdog.Runtime_deadlock when execution stalls for the
    watchdog's timeout (default 5s; pass {!Watchdog.off} to wait
    indefinitely). *)
