(** The compile service: loop-IR in, proven schedule out, answered
    from a two-tier cache.

    Tier 1 is an in-memory {!Mimd_runtime.Schedule_cache} (LRU);
    tier 2 an optional {!Disk_cache}.  A disk hit is promoted into
    memory; a full miss runs {!Mimd_core.Full_sched.run}, optionally
    audits the result with the independent checker
    ({!Mimd_check.Validate.full}) and persists it to both tiers —
    with validation on, the disk store only ever holds schedules the
    oracle accepted.

    All entry points are domain-safe: this is exactly the object the
    {!Pool} workers hammer concurrently.  Failures come back as
    structured {!error}s carrying a {!Protocol.error_kind}, never as
    exceptions (scheduler and parser exceptions are caught and
    classified). *)

type t

type error = { kind : Protocol.error_kind; message : string }

type outcome = {
  result : Protocol.compiled;
  full : Mimd_core.Full_sched.t;
  graph : Mimd_ddg.Graph.t;
}

val create :
  ?memory_capacity:int ->
  ?disk:Disk_cache.t ->
  ?validate:bool ->
  ?comm_opt:int ->
  unit ->
  t
(** [memory_capacity] defaults to 256 entries; no [disk] means tier 2
    is off; [validate] (default false) audits every fresh schedule
    before it is cached.  [comm_opt] (off by default) runs the
    synchronization-minimizing rewrite ({!Mimd_codegen.Comm_opt.run}
    with that coalescing window) over the programs generated from
    every served schedule and reports the message-count delta in the
    reply's [comm] field.  Every freshly computed schedule's generated
    program is pre-lowered ({!Mimd_runtime.Lower.run}) into the memory
    cache's lowered tier, so an execution client asking for the same
    loop starts warm; the step is best effort (a loop the runtime
    cannot execute skips it) and is timed as the [lower] stage. *)

val validate_default : t -> bool

val compile :
  t ->
  ?deadline:float ->
  ?validate:bool ->
  loop:string ->
  machine:Mimd_machine.Config.t ->
  iterations:int ->
  unit ->
  (outcome, error) result
(** Serve one request.  [deadline] is an absolute
    [Unix.gettimeofday] instant: if it has passed before compilation
    starts the request fails fast with kind [Deadline]; if it passes
    {e during} compilation the result is still cached (the work is
    done — the next identical request hits) but this request reports
    [Deadline].  [validate] overrides the service default for this
    request only. *)

val compile_params :
  t -> ?deadline:float -> Protocol.compile_params -> (outcome, error) result
(** {!compile} driven by a decoded protocol request (the request's
    own [validate] field, when present, wins over the default). *)

val retune : t -> k:int -> Protocol.retuned
(** The closed-loop rescheduling hook: re-price every entry of the hot
    set (the last 32 distinct served requests) at communication cost
    [k].  Already-cached pricings cost a lookup; the rest recompile
    through the incremental path and land in both cache tiers (plus
    the lowered tier), so traffic asking for the measured [k] is
    served warm afterwards.  Counted by [mimd_serve_retunes_total] and
    traced as [serve.retune].  Sent over the wire as the [retune] op —
    by the router's SLO watcher past its drift threshold, or by an
    operator. *)

val stats_json : ?pool:Pool.t -> t -> Json.t
(** The payload of a [stats] reply: request/error counts, both cache
    tiers (hits/misses/entries/evictions, stores), optional pool
    gauges (jobs, queue depth, executed), and per-stage latency
    summaries (count, mean, p50/p90/p99, max, 8-bin histogram) for
    parse / schedule / validate / total, via {!Mimd_util.Stats}. *)

val memory_stats : t -> Mimd_runtime.Schedule_cache.stats
val disk_stats : t -> Disk_cache.stats option

val metrics : t -> Mimd_obs.Metrics.t
(** The service's private metrics registry (each service owns one, so
    concurrent services never share series): request/error counters,
    per-stage latency histograms ([mimd_serve_stage_latency_ms] with a
    [stage] label), cache-tier hit/miss counters and the pool
    queue-wait histogram.  The name reference is in
    [docs/OBSERVABILITY.md]. *)

val observe_queue_wait : t -> float -> unit
(** Record one pool queue wait, in milliseconds (called by the server
    front end, which is the only layer that sees both the submit and
    the dequeue instants). *)

val metrics_text : ?pool:Pool.t -> t -> string
(** The payload of a [metrics] reply: the whole registry in Prometheus
    text format, with cache-size and pool gauges refreshed from
    {!memory_stats}/{!disk_stats}/[pool] at render time. *)
