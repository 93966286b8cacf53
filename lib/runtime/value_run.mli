(** The contract shared by every runtime backend: what a channel
    provides to one processor, and the {!outcome} a run yields.

    {!Exec_compiled} executes one processor's lowered program against
    any {!chans} — built with {!of_links} over in-process channels
    between domains or the forked-process socket and TCP meshes in
    [Mimd_dist], or by the inline run around
    {!Mimd_codegen.Program.simulate}'s frames — and {!finalize} folds
    the per-processor value arrays into an {!outcome}.  No memory is
    shared between processors: every cross-processor value travels in
    a message, exactly as on the paper's asynchronous shared-nothing
    MIMD machine.

    Determinism: the value computed for each instance is independent
    of interleaving (messages are matched by instance tag), so every
    instance value is bit-identical to
    {!Mimd_loop_ir.Interp.instance_table} and the final memory to
    {!Mimd_loop_ir.Interp.run} whenever code generation is correct —
    {!check_instances} and {!check_against_sequential} assert exactly
    that, table against table, without building a list. *)

type instances = {
  iters : int;  (** iterations covered (an outcome's: the highest computed + 1) *)
  values : float array;
      (** [values.((node * iters) + iter)] is the value of instance
          (node, iter), when computed *)
  present : Bytes.t;
      (** byte [(node * iters) + iter] is non-zero when some processor
          computed instance (node, iter) *)
}
(** The value of every computed instance: one dense node x iteration
    table and a present bitmap. *)

type outcome = {
  instances : instances;  (** value produced by every instance *)
  memory : Mimd_loop_ir.Interp.store;
      (** final memory: every written cell holds its last writer's
          value (sequential order), over the cell ranges
          {!Mimd_loop_ir.Interp.run} uses *)
  messages : int;  (** messages actually sent between processors *)
  domains : int;  (** processors run = program processors *)
  domain_wall_ns : float array;
      (** per-processor wall-clock from collective start to that
          processor's last instruction *)
  makespan_ns : float;  (** max over [domain_wall_ns] *)
}

val instance_values : outcome -> ((int * int) * float) list
(** Every computed instance's value, sorted by (node, iteration): the
    list form of [instances], built on demand for printing and
    tests. *)

val final : outcome -> (string * int * float) list
(** {!Mimd_loop_ir.Interp.written_cells} of [memory]: every written
    cell, sorted by array name and index, built on demand. *)

val instance_count : instances -> int
(** Instances present. *)

val default_channel_capacity : int
(** Per-channel message bound of {!Exec_compiled.run}'s domain
    channels.  Exposed so independent auditors (notably
    {!Mimd_check.Validate.program}'s protocol simulation) and
    alternative channel backends (the socket mesh in [Mimd_dist])
    model the same bound the domain channels enforce. *)

type payload =
  | Single of float  (** a plain [Send]'s value *)
  | Pack of ((int * int) * float) array
      (** one coalesced/forwarding frame: every (instance, value) pair
          it carries, head instance first ({!Mimd_codegen.Comm_opt}) *)

type chans = {
  send : dst:int -> tag:int * int -> payload -> unit;
      (** Ship the frame for instance [tag] (a pack's head tag) to
          processor [dst]. *)
  recv : src:int -> tag:int * int -> payload;
      (** Block until the frame named [tag] arrives from [src]. *)
}
(** What a channel backend provides to one worker. *)

val of_links :
  procs:int ->
  send:(dst:int -> tag:int * int -> payload -> unit) ->
  next:(src:int -> (int * int) * payload) ->
  chans
(** The one frame-matching rule, over any transport of FIFO links.
    [send] ships a frame to [dst] (blocking, if the transport bounds
    its links, while the link is full); [next ~src] blocks for the
    next [(tag, payload)] frame on the link from [src], in the order
    [src] sent them.  The returned [recv ~src ~tag] takes the frame
    from a per-source stash keyed by tag when an earlier pull already
    brought it in, and otherwise pulls frames from [src] until [tag]'s
    arrives, stashing the others.  A consumer may issue its [Recv]s in
    another order than the producer issued the matching [Send]s; each
    (src, dst, tag) frame is unique, so stashing never mis-delivers —
    the rule {!Mimd_codegen.Program.simulate} models.  Receiving an
    in-order frame allocates nothing.  One [chans] per processor
    ([procs] sources); exceptions from [send] and [next] pass
    through. *)

val finalize :
  loop:Mimd_loop_ir.Ast.loop ->
  program:Mimd_codegen.Program.t ->
  computes:(int * int) array array ->
  results:(float array * int * float) array ->
  outcome
(** Fold the per-processor results into an {!outcome}.  [computes.(j)]
    lists the [(node, iteration)] instances processor [j] computes, in
    program order ({!Lower.proc_code.computes}); [results.(j)] is that
    processor's [(values, sent, wall_ns)], where [values.(k)] is the
    value of [computes.(j).(k)].  The fold scatters every value into
    the [instances] table, then replays it in sequential (iteration,
    body position) order with {!Mimd_loop_ir.Interp.of_instances}, so
    each written cell holds its last writer's value (fixed cells at
    index 0 as in {!Mimd_loop_ir.Interp.cell_index}).  Nothing is
    allocated per instance: the tables, the store and a few per-node
    arrays are the whole cost.  Every executor folds through here, so
    outcomes are comparable table for table.  Traced as the
    [run.finalize] span.
    @raise Invalid_argument on a malformed loop/program pair, when
    [computes] and [results] differ in length, when a processor's
    value array and its [computes] differ in length, or on an instance
    outside the loop's statements. *)

val spec : loop:Mimd_loop_ir.Ast.loop -> iterations:int -> instances
(** The sequential spec as an instance table:
    {!Mimd_loop_ir.Interp.instance_table} with every instance present,
    over the default inputs.  Computed once and passed to
    {!check_instances}.
    @raise Invalid_argument on a structured loop. *)

val check_against_sequential :
  loop:Mimd_loop_ir.Ast.loop ->
  iterations:int ->
  outcome ->
  (unit, string) result
(** Bit-exact comparison of the outcome's [memory] against
    {!Mimd_loop_ir.Interp.run} on the same loop and trip count, over
    the default inputs (identical computations must give identical
    bits, NaN included), by {!Mimd_loop_ir.Interp.first_difference}.
    [Error] is ["cell count mismatch: sequential wrote N, parallel
    M"], ["cell mismatch: sequential A[i] vs parallel B[j]"] at the
    first differing written cell, or ["value mismatch at A[i]:
    sequential x, parallel y"] (values as [%.17g]). *)

val check_instances : spec:instances -> instances -> (unit, string) result
(** [check_instances ~spec got] compares an executor's instance table
    against the spec ({!spec}, computed once by the caller), instance
    by instance in (node, iteration) order, bit for bit.  Stronger
    than {!check_against_sequential}: a wrong value that a later
    writer of the same cell overwrites is still caught.  [Error] is
    ["sequential computed N instance(s), parallel M"], ["instance sets
    differ at (n,i) vs (n',i')"] at the first differing present
    instance, or ["instance (n,i): sequential x, parallel y"] (values
    as [%h]). *)

val same_values : outcome -> outcome -> bool
(** Two outcomes computed the same instances and final memory, every
    value identical by {!Mimd_loop_ir.Interp.same_bits}: [0.0] and
    [-0.0] differ, a NaN matches the same NaN. *)
