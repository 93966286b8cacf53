(** The simulated asynchronous MIMD multiprocessor: a thin adapter that
    runs {!Mimd_codegen.Program.simulate} at unbounded link capacity,
    drawing each frame's latency from {!Links}.

    Each processor executes its program in order.  [Compute] occupies
    the processor for the node's latency; [Send] is free for the sender
    (communication is fully overlapped, Section 4) and delivers its
    message after the link's sampled latency; [Recv] blocks until the
    named message has arrived.  Processors are otherwise completely
    asynchronous — there is no global clock alignment, only messages.
    Latencies are drawn per link in send order, so every time is
    independent of the order the simulator visits processors in. *)

exception Deadlock of string

type event = Mimd_codegen.Program.event = {
  time : int;  (** cycle at which the instruction completed *)
  proc : int;
  instr : Mimd_codegen.Program.instr;
}

type outcome = Mimd_codegen.Program.outcome = {
  makespan : int;  (** latest completion across processors *)
  proc_finish : int array;
  messages : int;  (** total messages delivered *)
  comm_cycles : int;  (** sum of sampled message latencies *)
  busy_cycles : int;  (** total compute cycles across processors *)
  trace : event list;  (** completion order; empty unless [record] *)
  steps : int;  (** instructions retired plus parked processors woken *)
}

val run : ?record:bool -> program:Mimd_codegen.Program.t -> links:Links.t -> unit -> outcome
(** Execute to completion.  @raise Deadlock when blocked forever (e.g.
    a recv whose send never happens), with each blocked processor's
    wait.  @raise Failure on the simulator's other failures: an operand
    missing at a Compute or Send, a frame received with other tags than
    it was sent with, or a frame nobody receives. *)

val simulate_schedule :
  ?record:bool -> schedule:Mimd_core.Schedule.t -> links:Links.t -> unit -> outcome
(** Convenience: lower the schedule with {!Mimd_codegen.From_schedule}
    and run it. *)
