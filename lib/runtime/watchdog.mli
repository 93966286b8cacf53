(** The stall report of a run on domains.

    A simulated execution can detect deadlock instantly (no processor
    can step); a real one cannot — a domain blocked in [Recv] for a
    message nobody will send just waits forever.  {!Exec_compiled.run}
    calls a run in which no domain reported for its stall bound a
    stall ({!Collect}): it cancels the run's links (waking every
    waiter), joins the domains and raises {!Runtime_deadlock} with
    one {!snapshot} per domain, built from the pc each one stopped
    at. *)

type snapshot = {
  proc : int;  (** scheduled processor = domain index *)
  retired : int;  (** instructions completed *)
  total : int;  (** program length *)
  current : string option;
      (** rendering of the instruction the domain is stuck on, [None]
          once its program is exhausted *)
}

type stall = { timeout : float; snapshots : snapshot list }

exception Runtime_deadlock of stall
(** The structured replacement for hanging: raised by the runtime
    executors on a stall.  [timeout] is the stall bound (0 for
    {!Exec_compiled.run_inline}, which sees a stall at once). *)

val snapshots :
  graph:Mimd_ddg.Graph.t ->
  programs:Mimd_codegen.Program.instr list array ->
  retired:(int -> int) ->
  snapshot list
(** One snapshot per processor: [retired proc] instructions of
    [programs.(proc)] done, [current] the next one rendered with the
    graph's node names.  Every executor's stall report is built here. *)

val describe : stall -> string
(** Multi-line report: one snapshot per domain. *)
