(** Reachability and path-length queries.

    Used by the classification cross-check (a node is Flow-in iff no
    dependence cycle reaches it), by Lemma-2-style path arguments in
    the tests, and by the critical-path lower bound reported next to
    each schedule. *)

val reaches : Graph.t -> src:int -> dst:int -> bool
(** Directed reachability src ->* dst (true when src = dst). *)

val ancestors : Graph.t -> int -> bool array
(** Nodes with a directed path into the given node (including itself). *)

val critical_path_zero : Graph.t -> int
(** Length (total latency) of the longest chain in the distance-0
    subgraph — the lower bound on one iteration's span with unlimited
    processors and free communication. *)

val recurrence_bound : Graph.t -> float
(** The recurrence-constrained initiation bound: the maximum over all
    dependence cycles C of (total latency of C) / (total distance of
    C).  No schedule can complete iterations faster than one per this
    many cycles on average, whatever the machine.  0 for acyclic
    graphs.  Computed by binary search over Bellman-Ford negative-cycle
    detection (standard minimum-cycle-ratio technique). *)
