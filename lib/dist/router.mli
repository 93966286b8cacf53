(** The serve fleet: a thin router in front of N spawned [serve
    --socket] workers ({!Member.Serve_worker}).

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

    Every routing decision is {!Router_core.step}, a pure function of
    the router's state and one event.  This module is the shell around
    it: one [Unix.select] loop over the router's listener, the client
    connections and the worker connections, with a line buffer and a
    non-blocking output queue per connection.  A client whose unsent
    replies pass a fixed bound is not read until it catches up, so a
    client that stops reading throttles only itself.  The router
    creates no thread and no domain.

    {b Respawn supervision} ([respawn > 0]): the router respawns a
    dead worker itself.  It binds the slot's [worker-<i>.sock], dials
    it, spawns the worker on that listener, and sends a boot ping; the slot takes traffic once the
    ping's answer arrives.  Each worker carries a respawn budget of
    [respawn]; a fleet-wide {!Respawn} circuit breaker bounds respawn
    storms (a worker dying of its environment would otherwise turn the
    supervisor into a fork bomb).  Every respawn bumps
    [mimd_dist_respawns_total].  Supervision events ([respawn],
    [respawn_failed], [breaker_tripped]) are kept, newest first and
    bounded to 32, under [stats.events].

    Router-answered ops: [ping], [stats] (fleet topology: worker
    pids, liveness, in-flight, shed/retry/respawn counts, supervision
    events), [metrics] (the [mimd_route_*] families), [shutdown].
    [compile] is forwarded with a router-assigned id and the reply is
    mapped back to the client's id.  [shutdown] drains: later compiles
    get an [overload] error, every admitted request is still answered,
    and then the workers are asked to exit. *)

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
  respawn : int;  (** per-worker respawn budget; 0 disables supervision *)
}

val shard_key : Mimd_server.Protocol.compile_params -> string
(** {!Router_core.shard_key}, the digest the router shards by
    (exposed for the tests and the benchmark). *)

val serve : config -> int
(** Spawn the fleet, wait for every worker's boot ping, serve until a
    [shutdown] request has drained; returns the exit code (1 when the
    fleet does not boot).  Every worker is reaped and the worker and
    router sockets are unlinked on the way out. *)
