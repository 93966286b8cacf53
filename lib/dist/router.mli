(** The serve fleet: a thin router in front of N forked [serve
    --socket] workers.

    Requests (the ordinary newline-delimited JSON of
    {!Mimd_server.Protocol}) are sharded by a consistent hash of the
    compile request's semantic fields ({!Ring}), so one loop always
    lands on one worker — its memory LRU stays hot — while all
    workers share one content-addressed disk cache directory.
    Admission control bounds the number of compile requests in flight
    across the fleet and sheds the excess with a structured
    [overload] error.  When a worker process dies, its in-flight
    requests re-shard onto the survivors (accepted requests are never
    dropped while any worker lives) and the death is surfaced in
    [stats]/metrics.

    {b Respawn supervision} ([respawn > 0]): a {e warden} process —
    forked while the router is still single-threaded, because OCaml 5
    forbids [fork] after the first thread/domain — re-forks a dead
    worker on command over a Wire-framed socketpair.  Each worker
    carries a respawn budget of [respawn]; a fleet-wide
    {!Respawn} circuit breaker bounds respawn storms (a worker dying
    of its environment would otherwise turn the supervisor into a
    fork bomb).  A respawned worker is dialed, boot-pinged, swapped
    into the fleet and given a fresh reader thread; every respawn
    bumps [mimd_dist_respawns_total].  Supervision events
    ([respawn], [respawn_failed], [breaker_tripped]) are kept, newest
    first and bounded to 32, under [stats.events].

    Router-answered ops: [ping], [stats] (fleet topology: worker
    pids, liveness, in-flight, shed/retry/respawn counts, supervision
    events), [metrics] (the [mimd_route_*] registry), [shutdown]
    (stops the fleet).  [compile] is forwarded with a router-assigned
    id and the reply is mapped back to the client's id.

    Fork ordering: the fleet forks before the router creates any
    thread, then the warden, and only then threads — see {!Runner}
    for the OCaml 5 constraint. *)

type config = {
  workers : int;  (** fleet size (>= 1) *)
  socket : string;  (** the router's own Unix-socket path *)
  worker_dir : string;  (** directory for [worker-<i>.sock] paths *)
  max_inflight : int;  (** fleet-wide compile admission bound *)
  jobs : int option;  (** per-worker pool domains; [None] = auto *)
  queue_depth : int;  (** per-worker pool queue bound *)
  cache_dir : string option;  (** shared disk cache; [None] = off *)
  validate : bool;  (** per-worker service validation default *)
  trace : string option;
      (** streaming-sink base: the router streams to this path, worker
          [i] to [<path>.worker<i>] (see {!Mimd_obs.Trace.set_sink}) *)
  respawn : int;
      (** per-worker respawn budget; 0 disables supervision (no warden
          is forked) *)
}

val shard_key : Mimd_server.Protocol.compile_params -> string
(** The digest the router shards by: loop source, processors, [k] and
    iterations.  Deterministic across processes (exposed for the
    tests). *)

val serve : config -> int
(** Spawn the fleet, wait for every worker's boot ping, serve until a
    [shutdown] request; returns the exit code.  Worker sockets and
    the router socket are unlinked on the way out; all children are
    reaped (respawned workers by the warden, which exits when the
    router closes its command channel). *)
