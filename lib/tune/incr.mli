(** Incremental recompilation.

    The scheduling pipeline's prefix — unwinding the DDG to distances
    in {0,1} and the Flow-in/Cyclic/Flow-out classification — reads
    only the graph, never the machine or trip count
    ({!Mimd_core.Full_sched.prepare}).  This cache keys those prepared
    prefixes by {!Mimd_runtime.Schedule_cache.graph_fingerprint}, so a
    recompile that changes only the machine ([p], [k]) or the
    iteration count reuses the DDG + classification and pays only
    Cyclic-sched and downstream — the cheap path the compile service
    routes prefix-sharing cache misses through. *)

type outcome = Cold | Incremental
(** Whether {!compile} found a prepared prefix ([Incremental]) or had
    to unwind + classify from scratch ([Cold]). *)

val outcome_name : outcome -> string

type t

type stats = { hits : int; misses : int; entries : int }

val create : ?capacity:int -> unit -> t
(** [capacity] (default 256) bounds the prepared-prefix table; beyond
    it the oldest entry is evicted (FIFO).
    @raise Invalid_argument if [capacity < 1]. *)

val global : t
(** Process-wide instance shared by the CLI and the compile service. *)

val compile :
  t ->
  graph:Mimd_ddg.Graph.t ->
  machine:Mimd_machine.Config.t ->
  iterations:int ->
  unit ->
  Mimd_core.Full_sched.t * outcome
(** Exactly {!Mimd_core.Full_sched.run} with the same arguments (and
    its default strategy) and the same result — plus whether the
    machine-independent prefix was reused.  Domain-safe. *)

val stats : t -> stats
val clear : t -> unit
