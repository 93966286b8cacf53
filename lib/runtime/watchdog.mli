(** The stall report of a run on domains.

    A simulated execution can detect deadlock instantly (no processor
    can step); a real one cannot — a domain blocked in [Recv] for a
    message nobody will send just waits forever.  {!Exec_compiled.run}
    calls a run in which no domain reported for its stall bound a
    stall ({!Collect}): its {!Team} cancels the links (waking every
    waiter, which replies with the pc it stopped at), retires, and
    the run raises {!Runtime_deadlock} with one {!snapshot} per
    domain, built from those pcs. *)

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

val snapshots : program:Mimd_codegen.Program.t -> retired:(int -> int) -> snapshot list
(** One snapshot per processor: [retired proc] instructions of
    [program.code.(proc)] done, [current] the next one rendered with the
    graph's node names.  Every executor's stall report is built here. *)

val describe : stall -> string
(** Multi-line report: one snapshot per domain. *)
