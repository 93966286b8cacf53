(** The supervisor of the socket runtime: one spawned OS process
    ({!Member}) per scheduled processor, {!Mimd_runtime.Mesh_sock}
    links between them, the shared
    {!Mimd_runtime.Exec_compiled.worker} inside each, and a parent
    that sends each call to them, collects per-member reports over
    control sockets — each member's computed values as one unboxed
    [float array] in the order of its lowered [computes], its message
    count and its wall time — and folds them through
    {!Mimd_runtime.Value_run.finalize}, so a distributed run yields the
    same [outcome] (bit-identical values, in the same dense tables) as
    the domain runtime and the sequential interpreter.

    {b The warm team.}  A process keeps at most one team: p members,
    their links and a control socket to each.  The first Unix-socket
    call at a given p starts it: each member inherits only its mesh
    row (its socketpair ends and the rings' memfd) and its control
    end, builds its links once and says "ready"; the start returns
    once every member has.  A member holds none of its parent's heap,
    and a process may start a team before or after it runs domains.
    A call sends each member a request — a program key, the marshalled
    {!Mimd_runtime.Lower.t} only the first time the team sees that key
    (the first program included), and the tracing switch — and the
    members run it, settle their links
    ({!Mimd_runtime.Mesh_sock.settle}), report and block on the next
    request.  A key is the {!fingerprint} of the call's loop and
    program; a held form is found by [==] on the loop and program
    first, so a caller passing the same values again hashes nothing,
    and a program the team holds is neither lowered nor shipped again.
    The request is marshalled once and written to every member within
    the stall bound; member and parent both hold the last 8 forms
    ({!Member.hold}).

    A team is {e retired} — no further call, every member SIGKILLed
    and reaped — on any failure below, after a call that left a frame
    unread on a link, and before a call that cannot use it (another p,
    a TCP call).  A TCP team lives for one call (its handshake binds
    one loop and program).  {!shutdown} ends the warm team and runs
    [at_exit]; a member whose parent died sees end of stream on its
    control socket and exits.  [mimd_dist_spawns_total] on the default
    metrics registry counts every member spawned.

    Failure is structured, as on domains
    ({!Mimd_runtime.Watchdog.Runtime_deadlock}): no member reported
    for the stall bound raises {!Dist_error}[ (Stalled _)], a crashed
    member {!Dist_error}[ (Child_exit _)], a member-side exception
    {!Dist_error}[ (Child_error _)].  A run ends by
    {!Mimd_runtime.Collect}'s rule, as a domain run does: a member's
    death reaches its peers as a [link down:] error, so after the
    first failure the supervisor waits up to one more stall bound for
    every other member, then raises the failure of the lowest-numbered
    PE whose failure is its own (not [link down:]), or else of the
    lowest-numbered failed PE.  The same fault thus names the same PE
    on every run, and a TCP handshake mismatch fails a team's start
    the same way.  On every failure path the team is retired before
    raising — no orphans, ever. *)

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
    team's pids right after the call's request reaches every member,
    so a pause it makes lands inside execution (the kill-child tests
    and [run-dist --inject-fault] use it).  [transport] (default
    {!Unix_sockets}) picks the link layer; both yield bit-identical
    outcomes.  Every member runs {!Mimd_runtime.Exec_compiled.worker}
    over the form named by [exec]: [`Compiled] (default) lowers the
    program in the parent unless the team holds it, [`Compiled_form l]
    passes [l], which must be the lowering of this [loop] and
    [program].  Either way a form ships to a team once.  [respawn]
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
(** Retire this process's warm team, if any: close the control ends,
    SIGKILL every member and reap them all.  Registered with [at_exit]
    when a team first starts; a process forked from the team's owner
    only drops its copies of the control ends. *)
