(** The random-loop generator of paper Section 4.

    "First, we fixed the number of nodes in the loop as 40, and the
    number of loop carried dependences (lcd's) and simple dependences
    (sd's) at 20 each.  The execution time of each node is randomly
    chosen from 1 to 3 cycles [...] we generated actual dependence
    links, 20 for lcd's and another 20 for sd's.  After this was done,
    we extracted only Cyclic nodes from the graph."

    Simple dependences are drawn between distinct nodes and oriented
    from the lower to the higher id, so the distance-0 subgraph is a
    DAG by construction; loop-carried dependences connect any ordered
    pair at distance 1.  Duplicate links collapse, which is why the
    paper speaks of "less than or equal to" 20 of each. *)

type params = {
  nodes : int;  (** default 40 *)
  lcds : int;  (** default 20 *)
  sds : int;  (** default 20 *)
  min_latency : int;  (** default 1 *)
  max_latency : int;  (** default 3 *)
}

val default_params : params

val generate : ?params:params -> seed:int -> unit -> Mimd_ddg.Graph.t
(** The full random loop for one seed (the paper uses seeds 1-25). *)

val generate_cyclic : ?params:params -> seed:int -> unit -> Mimd_ddg.Graph.t option
(** The extracted Cyclic subgraph, as the paper's experiments use;
    [None] in the (rare) case the Cyclic subset is empty. *)

val paper_seeds : int list
(** 1..25 *)

val generate_loop :
  ?max_stmts:int ->
  ?fanout:float ->
  seed:int ->
  unit ->
  Mimd_loop_ir.Ast.loop
(** A seeded random {e loop-IR program} (not just a graph): a flat
    loop of 2..[max_stmts] (default 6) assignments over a
    small array pool, reads at offsets in [{-1, 0}] so dependence
    distances stay within the scheduler's [{0, 1}].  Each statement
    past the first reads its predecessor's array, so the dependence
    graph is always weakly connected (the scheduler's precondition) —
    test-enforced, along with distances and latencies.  The chain
    alone biases the DDG towards out-degree 1; [fanout] (default 0.0,
    in [0..1]) is the per-statement probability of one extra read of
    an earlier writer's array, raising producer fan-out so diamond
    dependence shapes appear.  At 0.0 no extra PRNG draws happen, so
    loops for existing seeds are unchanged.  Deterministic in [seed];
    feeds the runtime/simulator differential tests.
    @raise Invalid_argument when [fanout] is outside [0..1]. *)
