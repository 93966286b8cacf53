(** The supervisor of the socket runtime: one forked OS process per
    scheduled processor, {!Mimd_runtime.Mesh_sock} links between
    them, the shared {!Mimd_runtime.Exec_compiled.worker} inside each, and a parent that
    sends each call to them, collects per-child reports over control
    sockets — each child's computed values as one unboxed [float
    array] in the order of its lowered [computes], its message count
    and its wall time — and folds them through
    {!Mimd_runtime.Value_run.finalize} — so a distributed run yields
    the same [outcome] (bit-identical values, in the same dense
    tables) as the domain runtime and the sequential interpreter.

    {b The warm team.}  A process keeps at most one team: p forked
    members, their links and a control socket to each.  The first
    Unix-socket call at a given p starts it: each member closes every
    inherited descriptor but its mesh row and its own control end
    (walking [/proc/self/fd]; stdin, stdout and stderr become
    [/dev/null]), builds its links once and says "ready", and the
    start returns only once every member has.  A call then sends each
    member a request — a program key, the marshalled
    {!Mimd_runtime.Lower.t} only the first time the team sees that
    key, and the parent's tracing switch — and the members run it,
    settle their links ({!Mimd_runtime.Mesh_sock.settle}), report and
    block on the next request.  A key is the {!fingerprint} of the call's loop and
    program; a held form is found by [==] on the loop and program
    first, so a caller passing the same values again hashes nothing.
    A program the team holds is neither lowered nor shipped again.  The
    request is marshalled once and written to every member within the
    stall bound; member and parent both hold the last 8 forms, evicting
    the oldest first.  The members of a live team are not forked again:
    a horner call at p=2 n=1000 costs 0.4-0.7 ms where fork, start-up
    and exit made it 2.6-5 ms.

    A team is {e retired} — no further call, every member SIGKILLed
    and reaped — on any failure below, after a call that left a frame
    unread on a link, and before a call that cannot use it (another p,
    a TCP call) lowers its program: while members live, every page the
    parent writes is copied on write.  A TCP team lives for one call
    (its handshake binds one loop and program).  {!shutdown} ends the
    warm team and runs [at_exit]; a
    member whose parent died sees end of stream on its control socket
    and exits.  [mimd_dist_forks_total] on the default metrics
    registry counts every member forked.

    Failure is structured, mirroring
    {!Mimd_runtime.Watchdog.Runtime_deadlock}: a silent stall raises
    {!Dist_error}[ (Stalled _)], a crashed child
    {!Dist_error}[ (Child_exit _)], a child-side exception
    {!Dist_error}[ (Child_error _)].  A child's death reaches its
    peers as a [link down:] error — while they run the call or while
    they settle after it — so the first report to arrive may be a
    symptom: after the first failure the supervisor waits up to
    the stall bound for every other child to report or exit, then
    raises the failure of the lowest-numbered PE whose failure is its
    own (not [link down:]), or else of the lowest-numbered failed PE.
    The same fault thus names the same PE on every run.  The same rule
    reads the members' "ready" at a team's start, so a TCP handshake
    mismatch fails the start the same way.  On every failure path the
    team is retired before raising — no orphans, ever (the
    fault-injection tests pin this down).

    {b Fork ordering}: OCaml 5 forbids [Unix.fork] in a process that
    has ever created a domain.  A call on a live team forks nothing,
    so it may follow domains; starting a team forks, so the first
    call at each p (every TCP call, and every call after a failure)
    must come before anything that spawns domains
    ({!Mimd_runtime.Exec_compiled.run}, the server pool, parallel
    benchmarks). *)

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
(** The schedule identity the TCP handshake enforces: a digest of the
    exact loop + program pair.  Independently compiled peers agree on
    it iff they compiled the same schedule. *)

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
    team's pids right after the call's request reaches every member
    (after the team's start, and after every TCP handshake, so a pause
    it makes lands inside execution) — the kill-child tests and
    [run-dist --inject-fault] use it; production callers omit it.
    [transport] (default {!Unix_sockets}) picks the link layer; both
    yield bit-identical outcomes (the TCP loopback differential in CI
    pins this).  Every child runs {!Mimd_runtime.Exec_compiled.worker}
    over the lowered form named by [exec]: [`Compiled] (default)
    lowers the program in the parent unless the team holds it,
    [`Compiled_form l] passes [l], which must be the lowering of this
    [loop] and [program] (a team that holds their key runs its own
    copy).  Either way a form ships to a team once.  [respawn] (default 0) retries the whole
    run up to that many times after an {e environmental} failure — a
    [Child_exit], a [Stalled], or a [Child_error] carrying a
    [link down:] message (a peer's death observed from the wrong
    side).  A run is a deterministic pure function and every failure
    path retires the team first, so the retry — on a new team — is
    sound; each retry
    bumps [mimd_dist_respawns_total] on the default metrics registry
    and emits a [dist.respawn] trace instant.  Any other
    [Child_error] (the child's own exception, e.g. a handshake
    mismatch) is never retried — it recurs deterministically.  While
    tracing is on, children capture
    their own [run.*]/[dist.*] spans and the parent absorbs them into
    its export on distinct tracks.
    @raise Invalid_argument on a malformed loop/program pair.
    @raise Dist_error as above; the team is retired first. *)

val shutdown : unit -> unit
(** Retire this process's warm team, if any: close the control ends,
    SIGKILL every member and reap them all.  Registered with [at_exit]
    when a team first starts; a process forked from the team's owner
    only drops its copies of the control ends. *)
