(** Operation-level lowering: one DDG node per arithmetic operation.

    {!Depend} gives one node per {e statement}, the granularity the
    paper mostly works at.  Footnote 3, however, makes granularity a
    machine parameter ("it could be a single operation or a whole
    procedure"), and finer nodes expose parallelism {e inside}
    statements.  This pass decomposes every assignment's expression
    tree into individual operation nodes:

    - leaves (literals, scalars) cost nothing and vanish into their
      consumers;
    - each binary operation / negation / select becomes a node with
      its own latency from the {!Cost} model;
    - intra-statement data flow becomes distance-0 edges;
    - the cross-statement edges are {!Depend.deps}, mapped onto
      operation nodes: a flow dependence runs from the writer's {e
      root} operation to the node that consumes its read, an anti
      dependence the other way, an output dependence root to root.
      This module compares no subscripts;
    - copy statements ([X\[i\] = Y\[i-1\]]) still need a node (the
      value must materialise somewhere) with the cost model's base
      latency.

    The result schedules at least as well as the statement-level graph
    and often strictly better — the GRAIN experiment quantifies it. *)

type t = {
  loop : Ast.loop;  (** the flat loop lowered *)
  graph : Mimd_ddg.Graph.t;
  root_of_stmt : int array;  (** statement index -> node computing its value *)
  stmt_of_node : int array;  (** node -> owning statement index *)
}

val run : ?cost:Cost.t -> Ast.loop -> t
(** If-converts first when needed.  [cost] defaults to
    {!Cost.weighted}. *)

val run_string : ?cost:Cost.t -> string -> t

val node_count_of_stmt : t -> int -> int
(** How many operation nodes statement [i] expanded into. *)
