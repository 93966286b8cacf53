(** Execution of {!Lower}ed programs: the runtime's one evaluator.

    Each processor is one preallocated state plus "execute lowered
    instruction [ins]".  Domains and the socket and TCP meshes run a
    processor's whole stream through {!worker} as {!Team} members,
    over {!Value_run.chans} built by {!Value_run.of_links};
    {!run_inline} runs each instruction as
    {!Mimd_codegen.Program.simulate}'s value step.  Operand reads
    are slot lookups in an unboxed [float array], expressions are
    postfix loops over a reusable float stack that store their result
    straight into the slots (no float is boxed per [Compute]), and
    every slot was bound at lower time: executing instruction [k]
    reads record [k] of the program itself (kind, instance, peer, a
    pack's tags, all in place) and its slots in the lowered form.  The
    differential suite and [check --fuzz] hold every run (inline,
    domains, sockets, TCP) to {!Value_run.spec}, instance by instance,
    bit for bit.  Every run returns its values as dense tables
    ({!Value_run.outcome}: an instance table and an
    {!Mimd_loop_ir.Interp.store}), folded by {!Value_run.finalize}. *)

val worker :
  ?init:(string -> int -> float) ->
  lowered:Lower.t ->
  proc:int ->
  chans:Value_run.chans ->
  unit ->
  (float array * int, int * exn) result
(** Execute processor [proc]'s lowered stream over any channel
    backend: what a {!Team} member runs for each call.  [Ok] (computed
    values, messages sent), the per-processor input of
    {!Value_run.finalize}, or [Error (pc, e)] when instruction [pc] (0
    while the state is built) raised [e].  The values are unboxed and
    in program order: element [k] is the value of the [k]-th
    [Compute] record of processor [proc]'s code.  Initial memory is
    [init] (default {!Mimd_loop_ir.Interp.init}), scalars are
    {!Mimd_loop_ir.Interp.default_scalar}.  Outbound payloads are the
    only allocation per instruction. *)

val run :
  ?init:(string -> int -> float) ->
  ?timeout:float ->
  ?lowered:Lower.t ->
  loop:Mimd_loop_ir.Ast.loop ->
  program:Mimd_codegen.Program.t ->
  unit ->
  Value_run.outcome
(** Execute [program] on a {!Team} of [program.processors] domains over
    one {!Mesh_sock}, the ring links a socket team runs.  The process
    keeps this warm team as [Mimd_dist.Runner] keeps its socket team
    (so calls come from one domain at a time):
    started by the first call at a p, reused (each domain parked on
    its control socket, holding the last 8 forms), retired on any
    failure or stall, after a call that left a frame unread and before
    a call at another p, and ended by {!shutdown}.  A call with an
    [init] (initial memory; default {!Mimd_loop_ir.Interp.init}) runs
    on a team of its own, for that call, after the warm team retires.
    [mimd_runtime_spawns_total] on the default metrics registry counts
    every domain started.  [timeout] (default 5 s) is the stall bound,
    as on [Mimd_dist.Runner.run]: a stall cancels the mesh, so each
    blocked domain fails at the pc it stopped at, and the
    {!Watchdog.snapshots} come from those replies.  A domain that
    raises cancels the mesh at once (a peer that the cancel wakes is
    torn down, not failed).  [loop] must be flat and its assignment
    count must match the program's graph node count.  [lowered], an
    already lowered form of [program], skips the lowering pass.
    @raise Invalid_argument as {!Lower.run} does, or when [lowered]
    was lowered from another program ({!Lower.check_form}), before any
    domain starts.
    @raise Watchdog.Runtime_deadlock on a stall.
    @raise Failure [runtime: domain j failed: ...] with the
    lowest-numbered domain's own exception, once every domain
    stopped. *)

val shutdown : unit -> unit
(** Retire this process's warm domain team, if any: cancel its mesh,
    close its control sockets and join its domains.  Runs [at_exit]. *)

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
