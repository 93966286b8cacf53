(** The supervisor of the socket runtime: a {!Mimd_runtime.Team} of
    spawned OS processes ({!Member}), one per scheduled processor, over
    {!Mimd_runtime.Mesh_sock} ring links or {!Mesh_tcp}.  Each member
    runs the shared {!Mimd_runtime.Exec_compiled.worker} and reports its
    values as one unboxed [float array], its message count and its wall
    time; the parent folds them through
    {!Mimd_runtime.Value_run.finalize}, so a distributed run yields the
    same [outcome] (bit-identical values, in the same dense tables) as
    the domain runtime and the sequential interpreter.

    {b The warm team.}  A process keeps at most one Unix-socket team,
    started by the first call at a given p.  Each member inherits only
    its mesh row (its socketpair ends and the rings' memfd) and its
    control socket, and holds none of its parent's heap.  A call ships
    a request by {!Mimd_runtime.Team}'s protocol; a held program is
    found by [==] on the loop and program, then by {!fingerprint}, and
    is neither lowered nor shipped again.  The team is retired (every
    member SIGKILLed and reaped) on any failure below, after a call
    that left a frame unread, and before a call that cannot use it
    (another p, a TCP call); a TCP team lives for one call (its
    handshake binds one loop and program).  {!shutdown} runs
    [at_exit]; a member whose parent died sees end of stream on its
    control socket and exits.  [mimd_dist_spawns_total] on the default
    metrics registry counts every member spawned.

    Failure is structured, as on domains
    ({!Mimd_runtime.Watchdog.Runtime_deadlock}), and ends a run by
    {!Mimd_runtime.Collect}'s rule: no member reported for the stall
    bound is {!Dist_error}[ (Stalled _)], a crashed member
    {!Dist_error}[ (Child_exit _)], a member-side exception
    {!Dist_error}[ (Child_error _)].  A member's death reaches its peers
    as a [link down:] error, so after the first failure the others get
    one more stall bound, and the run fails with the lowest-numbered
    PE's own failure (not [link down:]), else the lowest-numbered
    failed PE: the same fault names the same PE on every run, and a
    TCP handshake mismatch fails a team's start the same way.  The
    team is retired before raising — no orphans, ever. *)

type failure =
  | Stalled of { timeout : float; waiting : int list }
      (** no child reported for [timeout] seconds; [waiting] lists the
          processors still outstanding *)
  | Child_exit of { proc : int; status : string }
      (** the child died (crash, kill) without reporting *)
  | Child_error of { proc : int; message : string }
      (** the child's worker raised; [message] is the exception *)

exception Dist_error of failure

val describe : failure -> string

type transport =
  | Unix_sockets
      (** one inherited socketpair per link, its frames carried by a
          shared-memory ring per direction ({!Mimd_runtime.Mesh_sock}) *)
  | Tcp of { roster : Mesh_tcp.addr list option; handshake_fault : int option }
      (** per-PE listeners + dialed connections ({!Mesh_tcp}): [roster]
          pins explicit HOST:PORT listen addresses (default: ephemeral
          loopback ports); [handshake_fault] makes that PE present a
          corrupted schedule fingerprint — the must-fail rendezvous
          probe *)

val fingerprint :
  loop:Mimd_loop_ir.Ast.loop -> program:Mimd_codegen.Program.t -> string
(** {!Mimd_runtime.Team.fingerprint}: the schedule identity the TCP
    handshake enforces.  Independently compiled peers agree on it iff
    they compiled the same schedule. *)

val run :
  ?timeout:float ->
  ?sabotage:(int array -> unit) ->
  ?transport:transport ->
  ?exec:[ `Compiled | `Compiled_form of Mimd_runtime.Lower.t ] ->
  ?respawn:int ->
  loop:Mimd_loop_ir.Ast.loop ->
  program:Mimd_codegen.Program.t ->
  unit ->
  Mimd_runtime.Value_run.outcome
(** Execute [program] on the [program.processors] members of a team
    (the warm team over {!Unix_sockets}, a one-call team over TCP).
    [timeout] (default 5 s) is the stall bound, on the monotonic
    clock: on shipping the request to every member, and on each wait
    for a report.  [sabotage] is a fault-injection hook handed the
    team's pids right after the call's request reaches every member,
    so a pause it makes lands inside execution (the kill-child tests
    and [run-dist --inject-fault] use it).  [transport] (default
    {!Unix_sockets}) picks the link layer; both yield bit-identical
    outcomes.  Every member runs {!Mimd_runtime.Exec_compiled.worker}
    over the form named by [exec]: [`Compiled] (default) lowers the
    program in the parent unless the team holds it, [`Compiled_form l]
    passes [l], which must be the lowering of this [loop] and
    [program]: a form lowered from another program raises
    [Invalid_argument "Runner.run: lowered form is for another
    program"] ({!Mimd_runtime.Lower.check_form}) before any member
    starts.  Either way a form ships to a team once.  [respawn]
    (default 0) retries the whole run, on a new team, up to that many
    times after an {e environmental} failure — a [Child_exit], a
    [Stalled], or a [Child_error] carrying a [link down:] message (a
    peer's death seen from the other side) — bumping
    [mimd_dist_respawns_total] on the default metrics registry and
    emitting a [dist.respawn] trace instant each time.  Any other
    [Child_error] (the member's own exception, e.g. a handshake
    mismatch) recurs deterministically and is never retried.  While
    tracing is on, members capture their own [run.*]/[dist.*] spans
    and the parent absorbs them into its export on distinct tracks.
    @raise Invalid_argument on a malformed loop/program pair.
    @raise Dist_error as above; the team is retired first. *)

val shutdown : unit -> unit
(** Retire this process's warm team, if any: SIGKILL every member,
    close the control ends and reap them all.  Runs [at_exit]; a
    process forked from the team's owner only drops its copies of the
    control ends. *)
