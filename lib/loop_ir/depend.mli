(** Dependence analysis: from a (flat) loop to its data-dependence
    graph.

    This module holds the one subscript rule of the code base: no other
    module compares subscripts.  {!Op_graph} maps these dependences onto
    operation nodes and the runtime's [Lower] takes every operand's
    source from them; only {!Interp}, the independent oracle, does
    without them.

    One node per assignment statement; edges follow the standard
    definitions ([Padua79]) for single-index affine subscripts
    [X\[i+c\]]:

    - {e flow} (write then read of the same element): statement [s]
      writing [X\[i+a\]] reaches statement [t] reading [X\[i+b\]] at
      distance [a - b] when positive, or 0 when [a = b] and [s]
      precedes [t] in the body;
    - {e anti} (read then write): distance [b - a] when positive, or 0
      when [b = a] and the read precedes the write;
    - {e output} (write then write): distance [a - a'] accordingly.

    Constant-subscript cells ([X\[3\]], printed [X@3]) are
    loop-invariant locations: every iteration touches the same element,
    so a pair of accesses meets at distance 0 when the first statement
    precedes the second in the body and at distance 1 otherwise — a
    statement reading and writing such a cell is a reduction with a
    distance-1 flow self-dependence, a write gets a distance-1 output
    self-dependence, and so on.

    Negative distances never arise: a "dependence" backwards in the
    iteration space is recorded as the opposite-kind dependence in the
    forward direction. *)

type kind = Flow | Anti | Output

type dep = {
  src_stmt : int;
  dst_stmt : int;
  distance : int;
  kind : kind;
  array : string;  (** the array (or invariant cell) carrying it *)
  read : int option;
      (** flow and anti: [Some k], the read the dependence comes from —
          the [k]-th reference, in {!Ast.reads_of_expr} order, of the
          reading statement ([dst_stmt] for flow, [src_stmt] for
          anti); output: [None].  One statement reading an element
          twice gives one dependence per read. *)
}

type t = {
  loop : Ast.loop;  (** the flat loop analysed (after if-conversion) *)
  graph : Mimd_ddg.Graph.t;  (** node [k] = the body's [k]-th assignment *)
  deps : dep list;
}

val deps : Ast.loop -> dep list
(** The dependences of a flat loop, without building a graph: flow and
    anti for every (write, read) pair by writer, then reading
    statement, then read; output for every ordered pair of writes.
    @raise Invalid_argument if the body is not flat. *)

val analyze : ?cost:Cost.t -> Ast.loop -> t
(** If-converts first when the body is not flat.  Latencies come from
    [cost] (default {!Cost.weighted}); predicate-defining statements
    get the [Predicate] node kind; edges are {!deps}, added in order. *)

val analyze_string : ?cost:Cost.t -> string -> t
(** [analyze] o [Parser.parse]. *)

val of_source : ?cost:Cost.t -> string -> (t, string) result
(** The front end every caller of loop-IR source text goes through:
    [analyze_string] with a parse error, a lex error (with its
    position) or an empty body reported as a message instead of
    raised. *)

val count : t -> kind -> int
val pp_dep : t -> Format.formatter -> dep -> unit

val is_fixed_cell : string -> bool
(** Synthetic names of loop-invariant cells ([X@3]); {!Interp} reads
    them as one element. *)

val is_predicate : string -> bool
(** Arrays created by {!If_convert} ([p$k]). *)
