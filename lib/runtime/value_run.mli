(** The contract shared by every runtime backend: what a channel
    provides to one processor, and the {!outcome} a run yields.

    {!Exec_compiled} executes one processor's lowered program against
    any {!chans} — the in-process domain {!Mesh}, or the forked-process
    socket and TCP meshes in [Mimd_dist] — and {!finalize} folds the
    per-processor results into an {!outcome}.  No memory is shared
    between processors: every cross-processor value travels in a
    message, exactly as on the paper's asynchronous shared-nothing
    MIMD machine.

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
    (notably {!Mimd_check.Validate.program}'s token simulation) and
    alternative channel backends (the socket mesh in [Mimd_dist])
    model the same bound the real mesh enforces. *)

type payload =
  | Single of float  (** a plain [Send]'s value *)
  | Pack of ((int * int) * float) array
      (** one coalesced/forwarding frame: every (instance, value) pair
          it carries, head instance first ({!Mimd_codegen.Comm_opt}) *)

type chans = {
  send : dst:int -> tag:int * int -> payload -> unit;
      (** Ship the frame for instance [tag] (a pack's head tag) to
          processor [dst]; must block when the link is at capacity. *)
  recv : src:int -> tag:int * int -> payload;
      (** Block until the frame named [tag] arrives from [src]; must
          stash out-of-order arrivals (same discipline as
          {!Mesh.recv_tag}). *)
}
(** What a channel backend provides to one worker. *)

val finalize :
  loop:Mimd_loop_ir.Ast.loop ->
  program:Mimd_codegen.Program.t ->
  results:(((int * int) * float) list * int * float) array ->
  outcome
(** Fold per-processor [(computed, sent, wall_ns)] triples — one per
    processor, in processor order — into an {!outcome}: [final] gives
    each written cell the value of its last writer in sequential
    (iteration, body position) order.  Every executor folds through
    here, so outcomes are comparable list for list.
    @raise Invalid_argument on a malformed loop/program pair. *)

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
