(** The long-running compile-and-serve front ends: a newline-delimited
    JSON loop over stdio or a Unix domain socket ([mimdloop serve]),
    and a socket-less bulk mode over a file corpus ([mimdloop batch]).

    Both front ends share one {!Service} (so both cache tiers are
    shared too) and one {!Pool} of worker domains.  Every failure a
    request can provoke — malformed frame, unparsable loop, scheduler
    error, validator reject, blown deadline, or any exception a compile
    escapes with (kind [internal]) — becomes one structured [ok: false]
    reply on the wire; nothing a client sends can crash the server.  Backpressure is physical: the pool's bounded queue
    blocks readers and (via {!Pool.wait_capacity}) the accept loop,
    so overload queues in the clients, not in server memory. *)

type t

val create : service:Service.t -> pool:Pool.t -> unit -> t

val make :
  ?comm_opt:int ->
  ?cache_dir:string ->
  validate:bool ->
  jobs:int ->
  queue_depth:int ->
  unit ->
  t
(** The serve stack in one call, for [mimdloop serve]/[batch] and for
    each router worker alike: a {!Service} (with a {!Disk_cache} tier
    in [cache_dir] when given, see {!Service.create} for [validate]
    and [comm_opt]) behind a {!Pool} of [jobs] domains. *)

val default_jobs : cap:int -> int
(** The runtime's recommended domain count, capped at [cap] and at
    least 1: the [--jobs] default. *)

val service : t -> Service.t
val pool : t -> Pool.t

val shutdown : t -> unit
(** {!Pool.shutdown} of the server's pool. *)

val serve_channels : t -> in_channel -> out_channel -> unit
(** Read request frames from the input channel until EOF or a
    [shutdown] frame, replying on the output channel (writes are
    mutex-serialised; replies may be out of request order when the
    pool has more than one worker).  Waits for every in-flight job's
    reply before returning.  Exposed for tests, which drive it over
    pipes. *)

val serve_stdio : t -> int
(** {!serve_channels} over stdin/stdout.  Returns exit code 0: a
    request error is answered on the wire, not via the exit code. *)

val listen_unix : string -> Unix.file_descr
(** A listening Unix-domain socket bound at the path, replacing any
    stale socket file. *)

val serve_socket : ?listener:Unix.file_descr -> t -> path:string -> int
(** Bind (replacing any stale socket file), accept, serve each
    connection on its own thread.  [listener] is an already listening
    socket bound at [path] (by {!listen_unix}) to serve instead.  A
    [shutdown] request from any client stops the accept loop, unblocks
    the other connections and drains the pool.  The socket file is
    unlinked on the way out.  Returns exit code 0 on clean shutdown. *)

val collect_corpus : string list -> (string list, string) result
(** Expand batch arguments: directories are walked recursively for
    [*.loop] files (sorted); plain files are taken as given.  Errors
    on a missing path or an empty result. *)

val batch :
  t ->
  machine:Mimd_machine.Config.t ->
  iterations:int ->
  ?deadline_ms:float ->
  paths:string list ->
  unit ->
  int
(** Compile every file of the corpus on the pool, one line of report
    per file plus a cache summary.  Exit code 1 when {e any} file
    failed (after reporting all of them — the [run-parallel]
    convention), 0 otherwise. *)
