(** Cycle-counting dry run on real domains: wall-clock makespan
    measurement without value computation.

    Executes a compiled program's instruction streams on one domain
    per processor, carrying empty messages, and reports how long each
    domain took in wall-clock nanoseconds together with the latency
    cycles it retired.  A {!work} model emulates the cost of one
    schedule cycle:

    - [No_work]: instructions are free; measures pure runtime overhead
      (spawn, channel traffic, synchronisation).
    - [Spin ns]: busy-wait [latency * ns] per compute — realistic
      CPU-bound grains, requires as many cores as domains to show
      overlap.
    - [Sleep ns]: timed wait [latency * ns] per compute — overlapping
      waits expose the {e schedule's} parallelism in wall-clock even
      on fewer cores than domains (a blocked domain consumes no CPU),
      which is how the benchmark demonstrates multi-domain speedup on
      small machines.

    The speedup of a P-domain run over the 1-processor (sequential
    schedule) run under the same work model approaches the paper's
    predicted cycle-count ratio as the grain grows. *)

type work = No_work | Spin of float | Sleep of float

type outcome = {
  makespan_ns : float;  (** collective start to last domain finish *)
  domain_ns : float array;  (** per-domain finish, from collective start *)
  busy_cycles : int array;  (** latency cycles retired per domain *)
  messages : int;
  domains : int;
}

val run :
  ?watchdog:Watchdog.config ->
  ?channel_capacity:int ->
  ?work:work ->
  program:Mimd_codegen.Program.t ->
  unit ->
  outcome
(** @raise Watchdog.Runtime_deadlock as {!Exec_compiled.run} does.
    [work] defaults to [No_work]. *)

val speedup : baseline:outcome -> outcome -> float
(** [baseline.makespan_ns / t.makespan_ns]. *)
