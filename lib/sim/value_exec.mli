(** Value-carrying parallel execution: the end-to-end correctness
    check.

    {!Exec} measures {e time}; this module additionally computes
    {e values}.  Each processor keeps a local memory (initialised like
    the sequential interpreter's); a [Compute] for statement [s] at
    iteration [i] evaluates the statement's right-hand side against
    that local memory and stores the result; a [Send] ships the
    produced value; a [Recv] deposits it into the receiver's local
    memory.  If code generation ever forgot a message, reordered
    dependent operations, or mixed up iterations, some processor would
    read a stale or initial value and the final memory would differ
    from the sequential interpreter's — {!check_against_sequential}
    compares them cell by cell.

    Nodes are statement-level (the {!Mimd_loop_ir.Depend} convention:
    node [k] of the graph is the flat body's [k]-th assignment). *)

type outcome = {
  timing : Exec.outcome;  (** same timing data as {!Exec.run} *)
  instance_values : ((int * int) * float) list;
      (** value produced by every (statement, iteration) instance *)
  final : (string * int * float) list;
      (** last-writer value of every written cell, sorted *)
}

val resolver :
  (string * int * Mimd_loop_ir.Ast.expr) array ->
  int ->
  string ->
  int ->
  (int * int) option
(** [resolver stmts t array b] is the reaching definition of the
    reference [array\[i + b\]] read by statement [t]: [Some (s, delta)]
    when the value is produced by statement [s], [delta] iterations
    back; [None] when it comes from initial memory.  [stmts] is the
    flat body as returned by {!Mimd_loop_ir.Ast.assignments}.  Shared
    by this simulator and the real-domain runtime ({!Mimd_runtime}) so
    both address values identically. *)

val settle :
  (string * int * Mimd_loop_ir.Ast.expr) array ->
  (int * int, float) Hashtbl.t ->
  ((int * int) * float) list * (string * int * float) list
(** [settle stmts values] folds every computed (statement, iteration)
    instance value into [(instance_values, final)], both sorted:
    [final] gives each written cell the value of its last writer in
    sequential (iteration, body position) order.  {!run} and the
    runtime's [Value_run.finalize] both fold through it, so every
    executor's outcome is comparable list for list. *)

val run :
  ?init:(string -> int -> float) ->
  ?scalars:(string -> float) ->
  loop:Mimd_loop_ir.Ast.loop ->
  program:Mimd_codegen.Program.t ->
  links:Links.t ->
  unit ->
  outcome
(** Execute [program] (generated from a schedule of [loop]'s
    dependence graph) carrying values.  [loop] must be flat; its
    assignment count must match the program's graph node count.
    @raise Invalid_argument on a mismatch.
    @raise Exec.Deadlock as {!Exec.run} does. *)

val check_final :
  ?init:(string -> int -> float) ->
  ?scalars:(string -> float) ->
  loop:Mimd_loop_ir.Ast.loop ->
  iterations:int ->
  final:(string * int * float) list ->
  unit ->
  (unit, string) result
(** Compare a last-writer cell list (as produced by any parallel
    executor) against {!Mimd_loop_ir.Interp.run} on the same loop,
    inputs and trip count.  Comparison is bit-exact. *)

val check_against_sequential :
  ?init:(string -> int -> float) ->
  ?scalars:(string -> float) ->
  loop:Mimd_loop_ir.Ast.loop ->
  iterations:int ->
  outcome ->
  (unit, string) result
(** Compare the parallel final memory against
    {!Mimd_loop_ir.Interp.run} on the same loop, inputs and trip
    count.  Comparison is bit-exact (identical computations must give
    identical bits, NaN included).  [Error] names the first differing
    cell. *)
