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
    - {b pre-bound communication} — every message end has its
      source or landing slot resolved; its endpoint and wire tag are
      the program's own record.

    {b The flat form.}  Lowering keeps each PE's code as
    {!Mimd_codegen.Program.code}, by reference: the program's
    instruction records are the only instruction format, and the
    evaluator reads kind, instance, peer and pack tags from them in
    place.  What lowering decides is a constant number of int arrays
    per PE beside them, so lowering allocates a handful of arrays per
    PE and a lowered form marshals as those arrays and the program's
    own:

    - [slots]: every instruction's slot entries, at its [at] offset:
      a [Compute]'s destination slot, then one operand slot per read
      (in {!code} [Load] order); a message's slots, one per tag, head
      first — the source slot of a [Send] or [Send_pack], the landing
      slot of a [Recv] or [Recv_pack];
    - [prefill]: (array id, cell index, slot) triples (array names in
      {!t.array_names}).

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

type proc_code = {
  code : Mimd_codegen.Program.code;
      (** the program's [code.(j)] itself, not a copy: instruction [k]
          is its record [k] *)
  at : int array;  (** [at.(k)]: instruction [k]'s first entry in [slots] *)
  slots : int array;  (** destination, operand, source and landing slots *)
  slot_count : int;  (** size of the value store ([>= 1]) *)
  prefill : int array;
      (** (array id, cell index, slot) triples: initial-memory cells
          to load before the first instruction *)
  compute_count : int;
      (** [Compute] records in [code]: the length of the executor's
          value array, whose element [k] is the [k]-th compute's value
          ({!Value_run.finalize}) *)
  stack_need : int;
}

type t = {
  processors : int;
  procs : proc_code array;
  codes : code array;  (** [codes.(node)]: statement [node]'s RHS *)
  array_names : string array;  (** by array id *)
  scalar_names : string array;
}

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

val check_form : caller:string -> t -> program:Mimd_codegen.Program.t -> unit
(** The check every executor makes of a form it is handed: [t] was
    lowered from [program] — each PE's code is [program]'s, physically
    or else structurally.
    @raise Invalid_argument ["<caller>: lowered form is for another
    program"] otherwise. *)

val sabotage_stale_slot : t -> t
(** A copy of [t] with one deliberately stale operand: the first
    [Compute] that reads anything is redirected to a fresh slot no
    instruction ever writes (executors initialise slots to NaN).  The
    value differential against the sequential interpreter must catch
    it; used by the CI must-fail probe.  The input is not mutated.
    @raise Invalid_argument if no compute reads any operand. *)
