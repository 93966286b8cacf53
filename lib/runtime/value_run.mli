(** The contract shared by every runtime backend: what a channel
    provides to one processor, and the {!outcome} a run yields.

    {!Exec_compiled} executes one processor's lowered program against
    any {!chans} — every executor builds them with {!of_links}, over
    in-process channels between domains, over per-link queues inline,
    or over the forked-process socket and TCP meshes in [Mimd_dist] —
    and {!finalize} folds the per-processor value arrays into an
    {!outcome}.  No memory is shared between processors: every
    cross-processor value travels in a message, exactly as on the
    paper's asynchronous shared-nothing MIMD machine.

    Determinism: the value computed for each instance is independent
    of interleaving (messages are matched by instance tag), so every
    instance value is bit-identical to
    {!Mimd_loop_ir.Interp.instance_values} and the final memory to
    {!Mimd_loop_ir.Interp.run} whenever code generation is correct —
    {!check_instances} and {!check_against_sequential} assert exactly
    that. *)

type outcome = {
  instance_values : ((int * int) * float) list;
      (** value produced by every (statement, iteration) instance,
          sorted *)
  final : (string * int * float) list;
      (** last-writer value of every written cell, sorted *)
  messages : int;  (** messages actually sent between processors *)
  domains : int;  (** processors run = program processors *)
  domain_wall_ns : float array;
      (** per-processor wall-clock from collective start to that
          processor's last instruction *)
  makespan_ns : float;  (** max over [domain_wall_ns] *)
}

val default_channel_capacity : int
(** Per-channel message bound used by {!Exec_compiled.run} when
    [?channel_capacity] is omitted.  Exposed so independent auditors
    (notably {!Mimd_check.Validate.program}'s protocol simulation) and
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
    one dense node x iteration table, reads [instance_values] off it in
    (node, iteration) order, and replays it in sequential (iteration,
    body position) order to give each written cell the value of its
    last writer: [final] comes out in (array name, index) order, fixed
    cells at index 0 as in {!Mimd_loop_ir.Interp.cell_index}.  Every
    executor folds through here, so outcomes are comparable list for
    list.  Traced as the [run.finalize] span.
    @raise Invalid_argument on a malformed loop/program pair, when
    [computes] and [results] differ in length, when a processor's
    value array and its [computes] differ in length, or on an instance
    outside the loop's statements. *)

val check_against_sequential :
  ?init:(string -> int -> float) ->
  ?scalars:(string -> float) ->
  loop:Mimd_loop_ir.Ast.loop ->
  iterations:int ->
  outcome ->
  (unit, string) result
(** Bit-exact comparison of the runtime's final memory against
    {!Mimd_loop_ir.Interp.run} on the same loop, inputs and trip count
    (identical computations must give identical bits, NaN included).
    [Error] names the first differing cell. *)

val check_instances :
  spec:((int * int) * float) list ->
  ((int * int) * float) list ->
  (unit, string) result
(** [check_instances ~spec got] compares an executor's instance list
    against the spec ({!Mimd_loop_ir.Interp.instance_values}, computed
    once by the caller), instance by instance, bit for bit.  Stronger
    than {!check_against_sequential}: a wrong value that a later
    writer of the same cell overwrites is still caught.  [Error] names
    the first differing instance. *)
