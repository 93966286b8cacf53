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
      last write before the read in sequential order.  It is resolved
      once per statement read, into a read plan (source statement,
      distance, array id, offset, fixed-cell flag).  An operand read
      is a precomputed slot index, and reads that fall through to
      initial memory become slots prefilled before the first
      instruction;
    - {b expression compilation} — each statement RHS compiles once to
      a small postfix op array evaluated on a reusable float stack: no
      closures, no AST walk, no allocation per iteration;
    - {b pre-bound communication} — Send/Recv/pack instructions carry
      their endpoint, wire tag and source/destination slots already
      resolved.

    {b The flat form.}  A PE's code is a constant number of int arrays,
    not one block per instruction, so lowering allocates a handful of
    arrays per PE (plus one tag per message, below) and a lowered form
    marshals as a few flat arrays:

    - [instrs]: one fixed-width record of {!width} ints per
      instruction; record [k] is [instrs.((k * width) + f)] for the
      fields [f] below;
    - [pool]: every record's variable-length part, at its
      {!field_pool} offset: a [Compute]'s operand slots (one per read,
      in {!code} [Load] order); a [Send]'s or [Send_pack]'s source
      slots, one per entry; a [Recv]'s or [Recv_pack]'s
      [(node, iter, slot)] triples, one per entry;
    - [tags]: the wire tags, built once here so that a send or recv
      allocates no tag: a message's head tag at its {!field_aux}
      index, followed, for a [Send_pack], by its further entries;
    - [prefill] and [computes]: int arrays of [(array id, cell index,
      slot)] triples (array names in {!t.array_names}) and of
      [(node, iter)] pairs.

    The lowered form is transport-agnostic and is the only
    per-processor evaluator: {!Exec_compiled} runs it inline on the
    calling thread (as {!Mimd_codegen.Program.simulate}'s value step:
    record [k] of PE [j] is instruction [k] of [code.(j)]), on
    domains, and over the [Mimd_dist] socket and TCP meshes, and every
    one of those runs must match {!Mimd_loop_ir.Interp.instance_table}
    bit for bit.  Malformed programs (an operand or sent value that is
    never produced before use) are rejected {e here}, before any
    processor runs. *)

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

(** {1 Instruction records} *)

val width : int
(** Ints per instruction record. *)

val field_kind : int
(** One of {!compute}, {!send}, {!send_pack}, {!recv}, {!recv_pack}. *)

val field_node : int
(** The instance computed, or a message's head tag: node ... *)

val field_iter : int
(** ... and iteration. *)

val field_peer : int
(** A message's destination (sends) or source (recvs); [-1] for a
    compute. *)

val field_pool : int
(** Offset of the record's entries in [pool]. *)

val field_count : int
(** Entries in [pool]: a compute's operand count, 1 for a [Send] or
    [Recv], a pack's instance count. *)

val field_aux : int
(** A compute's destination slot; a message's head tag index in
    [tags]. *)

val compute : int
val send : int
val send_pack : int
val recv : int
val recv_pack : int

type proc_code = {
  instrs : int array;  (** [width] ints per instruction, program order *)
  pool : int array;  (** operand, source and landing entries *)
  tags : (int * int) array;  (** wire tags, see above *)
  slot_count : int;  (** size of the value store ([>= 1]) *)
  prefill : int array;
      (** (array id, cell index, slot) triples: initial-memory cells
          to load before the first instruction *)
  computes : int array;
      (** (node, iter) pairs of the instances this PE computes, program
          order: pair [k] names the [k]-th value of the executor's
          value array, which {!Value_run.finalize} scatters by it *)
  stack_need : int;
}

type t = {
  processors : int;
  procs : proc_code array;
  codes : code array;  (** [codes.(node)]: statement [node]'s RHS *)
  array_names : string array;  (** by array id *)
  scalar_names : string array;
}

val instr_count : proc_code -> int
(** Instruction records in [instrs]. *)

val run : loop:Mimd_loop_ir.Ast.loop -> program:Mimd_codegen.Program.t -> unit -> t
(** Lower every processor's instruction records, read in place.
    [loop] must be flat and its assignment count must match the
    program's graph node count.
    @raise Invalid_argument on a malformed pair, including a [Compute]
    whose operand (or a [Send] whose value) is not defined before use
    on its PE. *)

val check_distances : Mimd_ddg.Graph.t -> (unit, string) result
(** [Ok ()] when every dependence distance of a loop's graph is 0 or 1,
    the only distances {!run} executes; otherwise the "loop needed
    unwinding" error that the fuzz oracle and the CLI report. *)

val computes : t -> int array array
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
