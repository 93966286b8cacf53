(** Data-dependence graph of a loop body.

    A loop is modelled, per Section 2.1 of the paper, as a graph whose
    nodes are units of computation (single operations up to whole
    procedures) carrying an integer latency, and whose edges are data
    dependences annotated with an iteration {e distance}: 0 for
    intra-iteration ("simple") dependences, [d > 0] for loop-carried
    dependences reaching [d] iterations ahead.  The scheduler requires
    distances in [{0, 1}]; {!Unwind.normalize} reduces larger distances
    by unrolling, following [MuSi87].

    Graphs are immutable once built; construction goes through a
    mutable {!builder}. *)

type kind =
  | Generic  (** unclassified unit of computation *)
  | Add
  | Mul
  | Div
  | Load
  | Store
  | Copy
  | Compare
  | Predicate  (** guard produced by if-conversion *)

type node = private {
  id : int;  (** dense index in [0, node_count) *)
  name : string;
  latency : int;  (** execution time in cycles, >= 1 *)
  kind : kind;
}

type edge = private {
  src : int;
  dst : int;
  distance : int;  (** iteration distance, >= 0 *)
  cost : int option;
      (** per-edge communication cost override; [None] means "use the
          machine model's default [k]" *)
}

type t
(** Immutable, so one graph may be read from several domains at once.
    Graphs are marshalled inside the on-disk schedule cache: a change
    to this type's layout (or to {!node}/{!edge}) must bump
    [Disk_cache.format_version], since the cache's stamp only catches
    a layout change that bumps it. *)

(** {1 Construction} *)

type builder

val builder : unit -> builder

val add_node : builder -> ?latency:int -> ?kind:kind -> string -> int
(** [add_node b name] registers a node and returns its id.  [latency]
    defaults to 1.  @raise Invalid_argument if [latency < 1]. *)

val add_edge : ?cost:int -> builder -> src:int -> dst:int -> distance:int -> unit
(** Register a dependence.  Duplicate (src, dst, distance) triples are
    collapsed, keeping the smaller cost override.
    @raise Invalid_argument on unknown endpoints or negative
    distance/cost. *)

val build : builder -> t
(** Freeze the builder.  @raise Invalid_argument if the builder holds
    no nodes. *)

val of_arrays :
  ?names:string array ->
  latencies:int array ->
  edges:(int * int * int) list ->
  unit ->
  t
(** Convenience constructor: [latencies.(i)] is node [i]'s latency,
    edges are [(src, dst, distance)] triples. *)

(** {1 Accessors} *)

val node_count : t -> int
val edge_count : t -> int
val node : t -> int -> node

val nodes : t -> node list
(** In id order. *)

val edges : t -> edge list
(** In insertion order. *)

val succs : t -> int -> edge list
(** Outgoing edges of a node, ascending (dst, distance). *)

val preds : t -> int -> edge list
(** Incoming edges of a node, ascending (src, distance). *)

val latency : t -> int -> int
val name : t -> int -> string
val kind : t -> int -> kind

val max_distance : t -> int
(** Largest edge distance; 0 for edge-less graphs. *)

val total_latency : t -> int
(** Sum of all node latencies = sequential time of one iteration. *)

val has_loop_carried : t -> bool
(** True iff some edge has distance >= 1. *)

val subgraph : t -> keep:(int -> bool) -> t * int array * int array
(** [subgraph g ~keep] restricts [g] to the nodes satisfying [keep],
    dropping edges with a discarded endpoint.  Returns
    [(g', old_of_new, new_of_old)] where [new_of_old.(i) = -1] for
    dropped nodes. *)

val is_connected : t -> bool
(** Weak (undirected) connectivity.  The scheduler assumes connected
    graphs; disconnected ones should be split with
    {!connected_components} and scheduled independently. *)

val connected_components : t -> int list list
(** Weakly-connected components as lists of node ids. *)

val equal_structure : t -> t -> bool
(** Same node count, latencies, kinds and edge multiset (names are
    ignored). *)

val pp : Format.formatter -> t -> unit
(** Human-readable multi-line dump. *)
