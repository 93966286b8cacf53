(** Dependence analysis: from a (flat) loop to its data-dependence
    graph.

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
    so a statement reading and writing such a cell is a reduction and
    gets a distance-1 flow self-dependence, writes get distance-1
    output self-dependences, and so on.

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
}

type t = {
  loop : Ast.loop;  (** the flat loop analysed (after if-conversion) *)
  graph : Mimd_ddg.Graph.t;  (** node [k] = the body's [k]-th assignment *)
  deps : dep list;
}

val analyze : ?cost:Cost.t -> Ast.loop -> t
(** If-converts first when the body is not flat.  Latencies come from
    [cost] (default {!Cost.weighted}); predicate-defining statements
    get the [Predicate] node kind. *)

val analyze_string : ?cost:Cost.t -> string -> t
(** [analyze] o [Parser.parse]. *)

val count : t -> kind -> int
val pp_dep : t -> Format.formatter -> dep -> unit

val is_fixed_cell : string -> bool
(** Synthetic names of loop-invariant cells ([X@3]) — shared with
    {!Op_graph}, which applies the same dependence rules at operation
    granularity. *)

val is_predicate : string -> bool
(** Arrays created by {!If_convert} ([p$k]). *)
