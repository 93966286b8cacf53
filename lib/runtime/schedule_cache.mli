(** Memoized scheduling: DDG + machine configuration -> compiled
    {!Mimd_core.Full_sched.t}.

    Scheduling is by far the most expensive step of serving a loop
    (pattern search, flow scheduling, folding comparison); executing a
    cached schedule costs only the run itself.  The cache keys on a
    digest of everything the scheduler reads — the graph's nodes
    (name, latency, kind) and edges (endpoints, distance, cost
    override, order-insensitively), the machine (processors, estimated
    communication cost), the trip count and the strategy parameters —
    so a hit is guaranteed to be the schedule the scheduler would have
    recomputed.  The compile service ([Mimd_server]) uses this table
    as the first tier in front of its on-disk store.

    The cache is domain-safe (a mutex guards every operation) and
    bounded: beyond [capacity] entries the {e least recently used}
    entry is evicted — a hit promotes its entry to most-recently-used,
    so the hot subset of a skewed request mix stays resident while
    one-off loops age out.  [stats] reports how many entries were
    evicted this way. *)

type t

type stats = { hits : int; misses : int; entries : int; evictions : int }

val create : ?capacity:int -> unit -> t
(** [capacity] defaults to 128.  @raise Invalid_argument if
    [capacity < 1]. *)

val capacity : t -> int

val fingerprint :
  graph:Mimd_ddg.Graph.t ->
  machine:Mimd_machine.Config.t ->
  iterations:int ->
  unit ->
  string
(** The hex digest used as cache key (exposed for tests, for logging
    cache behaviour, and as the content address of the on-disk store).
    It covers the graph, the machine's [p] and [k], the trip count and
    {!Mimd_core.Full_sched}'s default strategy knobs, the only ones a
    cached schedule is ever built with. *)

val graph_fingerprint : graph:Mimd_ddg.Graph.t -> unit -> string
(** Digest of only what the machine-independent pipeline prefix
    (unwind + classification) reads: the graph's nodes and edges.
    Compiles of the same loop at different machine / trip-count share
    this — the sub-key [Mimd_tune.Incr] caches prepared pipelines
    under. *)

val find : t -> key:string -> Mimd_core.Full_sched.t option
(** Tier-1 lookup.  A hit bumps the [hits] counter and promotes the
    entry (LRU); a miss bumps [misses].  Exposed so a caller layering
    further tiers below this one (the server's disk store) can
    interpose between lookup and compute. *)

val add : t -> key:string -> Mimd_core.Full_sched.t -> unit
(** Insert, evicting the least recently used entry when full.  A key
    already present is left untouched (first write wins; racing misses
    store equivalent values anyway). *)

val stats : t -> stats

val clear : t -> unit
(** Drop all entries; [stats] counters reset too. *)
