(** Execution of {!Lower}ed programs: the runtime's one evaluator.

    Domains, the inline run, the Unix-socket mesh and the TCP mesh all
    run processors through {!worker}, over {!Value_run.chans} built by
    {!Value_run.of_links} on their own FIFO links, and fold results
    into the same {!Value_run.outcome}.  The
    per-instruction work is a tight match over an array of int-field
    records: operand reads are slot lookups in an unboxed
    [float array], expression evaluation is a postfix loop over a
    reusable float stack, and message endpoints and slots were bound
    at lower time.  {!run_inline} is the same worker driven on the
    calling thread — the simulator's value check.  The differential
    suite and [check --fuzz] hold every run (inline, domains, sockets,
    TCP) to {!Mimd_loop_ir.Interp.instance_values}, instance by
    instance, bit for bit. *)

val worker :
  ?init:(string -> int -> float) ->
  ?scalars:(string -> float) ->
  ?tick:(unit -> unit) ->
  lowered:Lower.t ->
  proc:int ->
  chans:Value_run.chans ->
  unit ->
  float array * int
(** Execute processor [proc]'s lowered stream over any channel backend
    (the domain channels of {!run} or the [Mimd_dist] socket mesh); returns
    (computed values, messages sent), the per-processor input of
    {!Value_run.finalize}.  The values are unboxed and in the order of
    [lowered.procs.(proc).computes]: element [k] is the value of the
    [k]-th instance that processor computes.  [tick] is called after
    every instruction (the watchdog progress hook). *)

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
(** Execute [program] on [program.processors] fresh domains, one
    bounded {!Channel} of [channel_capacity] frames per ordered
    processor pair, matched by {!Value_run.of_links}.  [loop] must be flat and its assignment count
    must match the program's graph node count.  [lowered], an already
    lowered form of [program], skips the lowering pass; omitted, the
    program is lowered here.
    @raise Invalid_argument as {!Lower.run} does, or when [lowered]
    was built for a different processor count.
    @raise Watchdog.Runtime_deadlock when execution stalls for the
    watchdog's timeout (default 5s; pass {!Watchdog.off} to wait
    indefinitely). *)

val run_inline :
  ?lowered:Lower.t ->
  loop:Mimd_loop_ir.Ast.loop ->
  program:Mimd_codegen.Program.t ->
  unit ->
  Value_run.outcome
(** Execute [program] with every processor's {!worker} on the calling
    thread, over the default initial memory and scalars
    ({!Mimd_loop_ir.Interp.init}, {!Mimd_loop_ir.Interp.default_scalar}):
    no domain is created, so the caller stays fork-safe.  Each
    ordered processor pair is one unbounded FIFO queue, matched by
    {!Value_run.of_links}; a pull from an empty link suspends that
    processor (an effect), and a round-robin run loop resumes it on
    the next send over that link.  Values do not depend on
    interleaving, so the outcome's instance values and final memory
    are those of {!run}; timing belongs to [Mimd_sim.Exec.run], and
    [domain_wall_ns] is the calling thread's clock when each processor
    finished.  Spans, when tracing, all land on the calling thread.
    @raise Invalid_argument as {!run} does.
    @raise Watchdog.Runtime_deadlock at once when every unfinished
    processor waits for a frame no one will send ([timeout = 0.]; one
    snapshot per processor). *)
