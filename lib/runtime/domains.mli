(** Watchdog-guarded execution of per-processor programs on real
    OCaml 5 domains — the spawn / monitor / join harness shared by the
    value-carrying ({!Exec_compiled}) and timing ({!Timed_run}) executors.

    One domain is spawned per scheduled processor and runs that
    processor's instruction stream via the caller's [worker] callback;
    the coordinating domain meanwhile runs the {!Watchdog} over a
    global retired-instruction counter.  Failure containment:

    - a worker raising any exception first cancels the mesh so its
      siblings cannot block forever on messages that will never come,
      then surfaces the exception after all domains joined;
    - a global stall (every domain blocked, e.g. on a malformed
      program whose [Send] was lost) is converted into
      {!Watchdog.Runtime_deadlock} with per-domain snapshots instead
      of hanging. *)

val run :
  ?watchdog:Watchdog.config ->
  graph:Mimd_ddg.Graph.t ->
  programs:Mimd_codegen.Program.instr list array ->
  cancel_all:(unit -> unit) ->
  worker:(proc:int -> tick:(unit -> unit) -> 'r) ->
  unit ->
  'r array
(** Run [worker ~proc ~tick] on one fresh domain per program.  The
    worker must call [tick ()] after each retired instruction — that
    counter is both the watchdog's progress signal and the source of
    the [retired] field in deadlock snapshots.  Returns the per-domain
    results once every domain joined.
    @raise Watchdog.Runtime_deadlock when the watchdog fires.
    @raise Failure when a worker domain failed with an exception
    (after cancelling and joining the others). *)
