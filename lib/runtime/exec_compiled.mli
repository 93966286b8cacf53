(** Execution of {!Lower}ed programs: the runtime's one evaluator.

    Each processor is one preallocated state plus "execute lowered
    instruction [ins]".  Domains and the socket and TCP meshes run a
    processor's whole stream through {!worker}, over {!Value_run.chans}
    built by {!Value_run.of_links}; {!run_inline} runs each instruction
    as {!Mimd_codegen.Program.simulate}'s value step.  Operand reads
    are slot lookups in an unboxed [float array], expressions are
    postfix loops over a reusable float stack that store their result
    straight into the slots (no float is boxed per [Compute]), and
    message endpoints, wire tags and slots were bound at lower time:
    executing instruction [k] reads record [k] of the flat form.  The
    differential suite and [check --fuzz] hold every run (inline,
    domains, sockets, TCP) to {!Value_run.spec}, instance by instance,
    bit for bit.  Every run returns its values as dense tables
    ({!Value_run.outcome}: an instance table and an
    {!Mimd_loop_ir.Interp.store}), folded by {!Value_run.finalize}. *)

val worker :
  lowered:Lower.t ->
  proc:int ->
  chans:Value_run.chans ->
  unit ->
  float array * int
(** Execute processor [proc]'s lowered stream over any channel backend
    (the ring links of {!run} or of a [Mimd_dist] team, or TCP); returns
    (computed values, messages sent), the per-processor input of
    {!Value_run.finalize}.  The values are unboxed and in the order of
    [lowered.procs.(proc).computes]: element [k] is the value of its
    [k]-th (node, iter) pair, the [k]-th instance that processor
    computes.  Initial memory and
    scalars are the defaults ({!Mimd_loop_ir.Interp.init},
    {!Mimd_loop_ir.Interp.default_scalar}).  Outbound payloads are
    the only allocation per instruction. *)

val run :
  ?init:(string -> int -> float) ->
  ?timeout:float ->
  ?lowered:Lower.t ->
  loop:Mimd_loop_ir.Ast.loop ->
  program:Mimd_codegen.Program.t ->
  unit ->
  Value_run.outcome
(** Execute [program] on [program.processors] fresh domains over a
    {!Mesh_sock} built for this call: one shared-memory ring per
    ordered processor pair and a socketpair per pair as doorbell, the
    links a socket team runs, each domain on its
    {!Mesh_sock.row_chans}.  A domain that stops stores its result and
    the pc it stopped at, and writes one byte to a pipe the caller
    blocks on in [select]; {!Collect} decides how the run ends.  A
    domain that raises cancels the mesh at once (a peer that the
    cancel wakes is torn down, not failed).  [timeout] (default 5 s)
    is the stall bound, as on [Mimd_dist.Runner.run]: no domain
    reported for that long (any run the pipeline compiles takes
    milliseconds).  A stall cancels the mesh, joins every domain and
    builds {!Watchdog.snapshots} from the recorded pcs.  The mesh and
    the pipe are closed on every way out, a stall included.
    [init] is the initial memory (default
    {!Mimd_loop_ir.Interp.init}); scalars are
    {!Mimd_loop_ir.Interp.default_scalar}.  [loop] must be flat and
    its assignment count must match the program's graph node count.
    [lowered], an already
    lowered form of [program], skips the lowering pass; omitted, the
    program is lowered here.
    @raise Invalid_argument as {!Lower.run} does, or when [lowered]
    was built for a different processor count.
    @raise Watchdog.Runtime_deadlock on a stall.
    @raise Failure [runtime: domain j failed: ...] with the
    lowest-numbered domain's own exception, once every domain
    stopped. *)

val run_inline :
  ?lowered:Lower.t ->
  loop:Mimd_loop_ir.Ast.loop ->
  program:Mimd_codegen.Program.t ->
  unit ->
  Value_run.outcome
(** Execute [program] on the calling thread, over the default initial
    memory and scalars ({!Mimd_loop_ir.Interp.init},
    {!Mimd_loop_ir.Interp.default_scalar}): no domain is created.
    The run is
    {!Mimd_codegen.Program.simulate} (unbounded links, zero latency)
    whose value step executes each retiring instruction; a Send's
    payload rides with the simulated frame to its Recv.  Values do not
    depend on interleaving, so instance values and final memory are
    those of {!run}; timing belongs to [Mimd_sim.Exec.run], and
    [domain_wall_ns] is the calling thread's clock when each processor
    retired its last instruction.  Spans all land on the calling
    thread.
    @raise Invalid_argument as {!run} does, or with
    {!Mimd_codegen.Program.pp_failure}'s text on any failure but a
    stall (e.g. an [undelivered frame]).
    @raise Watchdog.Runtime_deadlock at once on a stall ([timeout = 0.];
    one snapshot per processor, [retired] = the pc it stopped at). *)
