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
(** Raised by {!run} with [~validate:true] when {!Program.check} finds a
    send/recv pairing defect; the message names the first defect and
    counts the rest. *)

val run : ?validate:bool -> Mimd_core.Schedule.t -> Program.t
(** Dependences whose producer instance lies outside the schedule
    (negative iteration) need no message.  Entries must form a closed
    schedule — see {!Mimd_core.Schedule.validate}.  [~validate:true]
    (default false) runs the in-layer {!Program.check} on the emitted
    programs; the independent protocol audit ([Mimd_check.Validate.program],
    which simulates the programs) is a separate call, made by
    [Mimd_check.Fuzz.compile].
    @raise Invalid_program on a pairing defect under [~validate:true]. *)
