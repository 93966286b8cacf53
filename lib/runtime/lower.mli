(** One-time lowering of per-processor programs to flat, unboxed code.

    Walking each statement's AST on every [Compute] and keeping every
    value behind a [Hashtbl] keyed by boxed [(node, iter)] tuples is
    slow on a real machine.  This pass pays all of that once, at
    compile time:

    - {b slot allocation} — every [(node, iter)] instance a PE touches
      (its own computes plus everything it receives) gets a dense int
      slot in one unboxed [float array]; each operand's source (the
      statement and iteration distance that produce it) comes from
      {!Mimd_loop_ir.Depend.deps}: the flow dependence into that read
      with the least distance, ties to the latest statement, i.e. the
      last write before the read in sequential order.  An operand read
      is a precomputed slot index, and reads that fall through to
      initial memory become slots prefilled before the first
      instruction;
    - {b expression compilation} — each statement RHS compiles once to
      a small postfix op array evaluated on a reusable float stack: no
      closures, no AST walk, no allocation per iteration;
    - {b pre-bound communication} — Send/Recv/pack instructions carry
      their endpoint, wire tag and source/destination slot arrays
      already resolved.

    The lowered form is transport-agnostic and is the only
    per-processor evaluator: {!Exec_compiled} runs it inline on the
    calling thread (as {!Mimd_codegen.Program.simulate}'s value step:
    [instrs.(k)] is the program's instruction [k]), on domains, and
    over the [Mimd_dist] socket and TCP meshes, and every one of those runs
    must match {!Mimd_loop_ir.Interp.instance_table} bit for bit.
    Malformed programs (an operand or sent value that is never
    produced before use) are rejected {e here}, before any processor
    runs. *)

type op =
  | Load of int  (** push the slot bound to the k-th operand read *)
  | Const of float
  | Scalar of int  (** index into the lowering's scalar table *)
  | Add
  | Sub
  | Mul
  | Div
  | Neg
  | Select
      (** eager ternary: [p :: a :: b] on the stack becomes
          [if p > 0 then a else b] — bit-identical to the
          interpreter's short-circuit walk because expressions are
          pure and codegen delivers both branches' operands *)

type code = { ops : op array; stack_need : int }
(** One statement RHS in postfix; [stack_need] bounds the evaluation
    stack ([>= 1]). *)

type cinstr =
  | CCompute of {
      node : int;
      iter : int;
      code : code;
      args : int array;  (** slot index per operand, {!code} order *)
      dst : int;  (** slot receiving the computed value *)
    }
  | CSend of { dst : int; tag : int * int; src_slot : int }
  | CSend_pack of {
      dst : int;
      tag : int * int;  (** head instance: the frame's wire name *)
      insts : (int * int) array;
      src_slots : int array;
    }
  | CRecv of { src : int; tag : int * int; dst_slot : int }
  | CRecv_pack of {
      src : int;
      tag : int * int;
      insts : (int * int) array;
      dst_slots : int array;
    }

type proc_code = {
  instrs : cinstr array;
  slot_count : int;  (** size of the value store ([>= 1]) *)
  prefill : (string * int * int) array;
      (** (array, cell index, slot): initial-memory cells to load
          before the first instruction *)
  computes : (int * int) array;
      (** instances this PE computes, program order: element [k]
          names the [k]-th value of the executor's value array, which
          {!Value_run.finalize} scatters by this index *)
  stack_need : int;
}

type t = {
  processors : int;
  procs : proc_code array;
  scalar_names : string array;
}

val run : loop:Mimd_loop_ir.Ast.loop -> program:Mimd_codegen.Program.t -> unit -> t
(** Lower every processor's instruction list.  [loop] must be flat and
    its assignment count must match the program's graph node count.
    @raise Invalid_argument on a malformed pair, including a [Compute]
    whose operand (or a [Send] whose value) is not defined before use
    on its PE. *)

val check_distances : Mimd_ddg.Graph.t -> (unit, string) result
(** [Ok ()] when every dependence distance of a loop's graph is 0 or 1,
    the only distances {!run} executes; otherwise the "loop needed
    unwinding" error that the fuzz oracle and the CLI report. *)

val computes : t -> (int * int) array array
(** Every processor's {!proc_code.computes}, in processor order: the
    [computes] argument of {!Value_run.finalize} for workers run over
    this lowered form. *)

val sabotage_stale_slot : t -> t
(** A copy of [t] with one deliberately stale operand: the first
    [Compute] that reads anything is redirected to a fresh slot no
    instruction ever writes (executors initialise slots to NaN).  The
    value differential against the sequential interpreter must catch
    it; used by the CI must-fail probe.  The input is not mutated.
    @raise Invalid_argument if no compute reads any operand. *)
