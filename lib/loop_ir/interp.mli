(** Reference interpreter: sequential semantics of the mini language.

    The gold standard every parallel executor is checked against
    ({!instance_values} instance by instance, {!run}'s written cells
    as final memory): run the loop body statement by statement,
    iteration by iteration, over concrete float arrays.

    Array cells are addressed by integer index; iteration [i] of the
    loop maps subscript [i + c] straight to index [i + c] (iterations
    are numbered from 0 here — the surface syntax's lower bound is
    symbolic anyway).  Cells never written keep their initial value
    from the {!init} function, which is also what reads of
    before-the-loop elements (negative indices included) see.

    Value conventions: predicates are truthy when positive;
    [select (p, a, b)] is [a] when [p > 0].  Division by zero follows
    IEEE (infinities/NaN propagate) — the default {!init} avoids zero
    so deterministic comparisons stay finite. *)

type store
(** Mutable map from (array name, index) to float. *)

val init : string -> int -> float
(** Default initial memory: a deterministic, non-zero, array- and
    index-dependent value in [\[1, 2)]. *)

val default_scalar : string -> float
(** Default binding for loop-invariant scalars, same recipe. *)

val cell_index : string -> iter:int -> offset:int -> int
(** The memory index a reference touches at an iteration: [iter +
    offset], except fixed cells ([X@k]) which always live at index 0.
    Shared with the runtime's lowering and last-writer fold. *)

val create_store : ?init:(string -> int -> float) -> unit -> store
val read : store -> string -> int -> float
val write : store -> string -> int -> float -> unit

val written_cells : store -> (string * int * float) list
(** Every cell explicitly written, sorted — the loop's observable
    output. *)

val eval_expr :
  store -> scalars:(string -> float) -> iter:int -> Ast.expr -> float
(** Evaluate an expression at iteration [iter] (fixed cells [X@k]
    read/write index 0 of their synthetic array). *)

val run :
  ?init:(string -> int -> float) ->
  ?scalars:(string -> float) ->
  Ast.loop ->
  iterations:int ->
  store
(** Execute the (flat or structured) loop sequentially.  Structured
    conditionals use the same truthiness as [select], so running the
    original loop and its if-converted form produce identical stores
    (test-enforced).  [scalars] defaults to hashing the name into
    [\[1, 2)]. *)

val instance_values : Ast.loop -> iterations:int -> ((int * int) * float) list
(** The spec at instance level: the value every assignment computes,
    keyed by [(body position, iteration)] and sorted — the same key
    and order as a parallel executor's instance list (a flat loop's
    body position is its dependence-graph node).  Same semantics as
    {!run} over the default {!init} and {!default_scalar}, the inputs
    every parallel executor's instance list is taken over; the loop
    must be flat.
    @raise Invalid_argument on a structured loop. *)
