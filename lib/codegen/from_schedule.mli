(** Lowering a schedule to per-processor message-passing programs.

    Each processor receives its schedule entries in start order.  A
    compute is preceded by one [Recv] per distinct off-processor value
    it consumes (a value already received — or produced — on the same
    processor is reused, never re-received) and followed by one [Send]
    per distinct consuming processor.  The resulting programs satisfy
    {!Program.check}, and executing them on the simulator with fixed
    communication latency [k] reproduces the schedule's makespan
    exactly when the schedule is {e communication-tight} (every
    cross-processor dependence waits exactly [k]); with slack the
    simulated makespan can only be smaller. *)

exception Invalid_program of string
(** Raised by {!run} with [~validate:true] when the installed
    {!validator} rejects the emitted programs. *)

val validator : (Program.t -> (unit, string) result) ref
(** The check applied by [~validate:true].  Defaults to the in-layer
    {!Program.check}; the independent checker ([Mimd_check], which this
    library cannot depend on) replaces it at start-up with its
    protocol check ({!Program.simulate} at the runtime's channel
    capacity) via
    [Mimd_check.Validate.install_hooks]. *)

val run : ?validate:bool -> Mimd_core.Schedule.t -> Program.t
(** Dependences whose producer instance lies outside the schedule
    (negative iteration) need no message.  Entries must form a closed
    schedule — see {!Mimd_core.Schedule.validate}.  With
    [~validate:true] the emitted programs are passed to the installed
    {!validator}; @raise Invalid_program if it reports a defect. *)
