(** The supervisor of the socket runtime: one forked OS process per
    scheduled processor, {!Mesh_sock} links between them, the shared
    {!Mimd_runtime.Exec_compiled.worker} inside each, and a parent that
    spawns, releases them together, collects per-child reports over
    control sockets — each child's computed values as one unboxed
    [float array] in the order of its lowered [computes], its message
    count and its wall time — and folds them through
    {!Mimd_runtime.Value_run.finalize} — so a distributed run yields
    the same [outcome] (bit-identical values, in the same dense
    tables) as the domain runtime and the sequential interpreter.
    The fold allocates nothing per instance: on ewf at p=2 n=1000 it
    takes about 0.4 ms of a call, where the sorted lists it replaced
    took about 4 ms and left their garbage to later calls.

    Failure is structured, mirroring
    {!Mimd_runtime.Watchdog.Runtime_deadlock}: a silent stall raises
    {!Dist_error}[ (Stalled _)], a crashed child
    {!Dist_error}[ (Child_exit _)], a child-side exception
    {!Dist_error}[ (Child_error _)].  A child's death reaches its
    peers as a [link down:] error, so the first report to arrive may
    be a symptom: after the first failure the supervisor waits up to
    the stall bound for every other child to report or exit, then
    raises the failure of the lowest-numbered PE whose failure is its
    own (not [link down:]), or else of the lowest-numbered failed PE.
    The same fault thus names the same PE on every run.  On every failure path the
    supervisor SIGKILLs and reaps all remaining children before
    raising — no orphans, ever (the fault-injection tests pin this
    down).

    {b Fork ordering}: OCaml 5 forbids [Unix.fork] in a process that
    has ever created a domain.  Call this before anything that spawns
    domains ({!Mimd_runtime.Exec_compiled.run}, the server pool, parallel
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
  | Unix_sockets  (** one inherited socketpair per link ({!Mesh_sock}) *)
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
(** Execute [program] on [program.processors] forked processes.
    [timeout] (default 5 s) is the no-report stall bound.  [sabotage]
    is a fault-injection hook handed the child pids right after the
    collective start — the kill-child tests and
    [run-dist --inject-fault] use it; production callers omit it.
    [transport] (default {!Unix_sockets}) picks the link layer; both
    yield bit-identical outcomes (the TCP loopback differential in CI
    pins this).  Every child runs {!Mimd_runtime.Exec_compiled.worker}
    over the lowered form named by [exec]: [`Compiled] (default)
    lowers the program once in the parent, [`Compiled_form l] reuses
    an already-lowered form.  [respawn] (default 0) retries the whole
    run up to that many times after an {e environmental} failure — a
    [Child_exit], a [Stalled], or a [Child_error] carrying a
    [link down:] message (a peer's death observed from the wrong
    side).  A run is a deterministic pure function and every failure
    path reaps all children first, so the retry is sound; each retry
    bumps [mimd_dist_respawns_total] on the default metrics registry
    and emits a [dist.respawn] trace instant.  Any other
    [Child_error] (the child's own exception, e.g. a handshake
    mismatch) is never retried — it recurs deterministically.  While tracing is on, children capture
    their own [run.*]/[dist.*] spans and the parent absorbs them into
    its export on distinct tracks.
    @raise Invalid_argument on a malformed loop/program pair.
    @raise Dist_error as above; all children are reaped first. *)
