(** Body reordering for DOACROSS.

    DOACROSS's delay depends on where the loop-carried sources and
    sinks fall inside the body: moving a producer earlier or a consumer
    later shrinks [d].  Optimal reordering is NP-hard in general
    ([Cytron86], [MuSi87]); paper Figure 8(b) uses an exhaustive search
    over the valid (distance-0 topological) orders, which we reproduce
    for small bodies, plus a greedy heuristic for the 40-node random
    loops. *)

type outcome = {
  analysis : Doacross.t;  (** the best analysis found *)
  orders_tried : int;
  complete : bool;  (** the whole order space was enumerated *)
}

val exhaustive :
  ?max_orders:int ->
  graph:Mimd_ddg.Graph.t ->
  machine:Mimd_machine.Config.t ->
  unit ->
  outcome
(** Enumerate topological orders of the distance-0 subgraph (depth
    first, up to [max_orders], default 200_000) and keep the order with
    the smallest delay, tie-broken by earliest discovery.  [complete]
    is false when the cap stopped the enumeration. *)

val heuristic :
  graph:Mimd_ddg.Graph.t -> machine:Mimd_machine.Config.t -> unit -> Doacross.t
(** Greedy order: run Kahn's algorithm preferring, among ready nodes,
    sources of loop-carried edges (placing them early shrinks
    [s(u)]) and deferring destinations of loop-carried edges (growing
    [s(v)]); ties by node id.  Never worse to try: callers compare its
    delay against the natural order's and keep the minimum. *)

val best :
  graph:Mimd_ddg.Graph.t ->
  machine:Mimd_machine.Config.t ->
  unit ->
  Doacross.t
(** The strongest baseline we can afford: exhaustive for bodies of at
    most 9 nodes, otherwise the best
    of the natural order and the heuristic. *)
