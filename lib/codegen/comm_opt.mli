(** Synchronization-minimizing rewrite of generated programs.

    {!From_schedule} emits one Send/Recv pair per cross-processor
    dependence edge.  Most of that synchronization is transitively
    redundant (Liao et al., arXiv:1211.4101): if a chain of other
    retained messages, composed with same-processor program order,
    already orders the producer's value before the consumer's first
    use, the direct message can be dropped — its value rides the chain
    as a piggybacked {e extra} on each hop's frame, landing in the
    consumer's store no later than the original Recv did.  Retained
    messages crossing the same processor pair inside an iteration
    window are then coalesced into one multi-tag frame
    ({!Program.Send_pack} / {!Program.Recv_pack}), sent at the latest
    member position and received at the earliest.  A merge only
    moves Sends later (every tag is already held there) and Recvs
    earlier (values land sooner), so the only failure it can
    introduce is a deadlock: every tentative merge is rejected when
    the merged Recv already happens-before the merged Send, found by
    one earliest-arrival search over the retained frames (program
    order plus send->recv edges, stash-style tag matching) — the same
    search that finds elision's forwarding chains.

    The rewrite never changes which processor computes what, so the
    optimized program is value-differentially identical to its input
    across the sequential interpreter, the simulator, the domain
    runtime and the socket runtime — {!Mimd_check.Fuzz}'s comm mode
    asserts exactly that. *)

type stats = {
  messages_before : int;  (** frames in the input program *)
  messages_after : int;  (** frames in the optimized program *)
  elided : int;  (** messages dropped by transitive reduction *)
  coalesced : int;  (** frames saved by merging per-link messages *)
  forwarded_values : int;
      (** extra value slots piggybacked on retained frames to carry
          the elided messages' payloads *)
  examined : int;
      (** messages the happens-before search examined, summed over
          every elision and coalescing query: a deterministic measure
          of the pass's work (each query examines a message at most
          once) *)
}

type fault =
  | Keep_extra_send
      (** after optimizing, keep one frame's Send but drop its Recv —
          the footprint of an unsound elision.  {!Program.check} (and
          therefore {!Mimd_check.Validate.program}) must reject the
          result; the CI probe asserts the oracle has teeth. *)

val run : ?window:int -> ?fault:fault -> Program.t -> Program.t * stats
(** Optimize a plain (pack-free) program.  [window] bounds the
    iteration span a coalesced frame may cover: members satisfy
    [max iter - min iter < window]; [1] merges only same-iteration
    messages, [0] disables coalescing, and the default [4] amortizes
    per-frame overhead across up to four iterations.  Each merge is
    accepted by a happens-before cycle check, not a re-simulation;
    the program is rebuilt once.  Without a fault, the whole result
    is then re-checked with {!Program.check} {e and} run to completion
    by {!Program.simulate} at unbounded capacity, which also checks
    every operand and frame shape; any defect or failure raises
    [Failure] — the pass refuses to emit a program it cannot prove
    well-formed and deadlock-free.
    @raise Invalid_argument on a negative window, an input that
    already contains packs, or unmatched or duplicated sends/recvs. *)

val messages : Program.t -> int
(** Frames sent: plain [Send]s plus [Send_pack]s, each counted once —
    the quantity the paper's comm term [k] prices. *)

val fingerprint : Program.t -> string
(** FNV-1a digest ({!Mimd_util.Fnv}, as
    {!Mimd_core.Full_sched.output_fingerprint}) of the instruction
    streams, pinning optimized codegen in the golden corpus. *)
