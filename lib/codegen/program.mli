(** Per-processor programs with explicit message passing.

    The transformed loop of paper Figures 7(e) and 10: each processor
    executes its own instruction sequence in order; values crossing
    processors travel in messages identified by the producing node
    instance.  [Send] is non-blocking (communication is fully
    overlapped, Section 4); [Recv] blocks until the named message has
    arrived.  These programs are what the simulated multiprocessor
    ({!Mimd_sim}) executes.

    {b The flat form.}  A processor's code is two int arrays, not one
    block per instruction ({!code}): [instrs] holds one record of
    {!width} ints per instruction, in program order, and [pool] holds
    the tags of each pack after its head.  This record is the one
    instruction schema of the whole system: {!From_schedule} writes
    the records directly, and every compile pass ({!check},
    {!simulate}, [Lower.run], {!Comm_opt.messages},
    {!Comm_opt.fingerprint}) and the runtime ([Exec_compiled], which
    runs a lowered form that shares these very arrays, and
    [Value_run.finalize], which reads each processor's compute
    records for the order of its values) read them in place.
    {!instr} is the view that printers and pattern matches use:
    {!decode} builds one for a defect, a failure or a printout,
    {!to_instrs} for a whole program, and {!of_instrs} is the one
    constructor from the view. *)

type tag = { node : int; iter : int }
(** A message is named by the instance that produced its value. *)

type instr =
  | Compute of { node : int; iter : int }
  | Send of { tag : tag; dst : int }
  | Recv of { tag : tag; src : int }
  | Send_pack of { tags : tag list; dst : int }
      (** One frame carrying several instance values to the same
          destination — emitted only by {!Comm_opt} (coalescing and
          value forwarding); [From_schedule] never produces packs.
          The head of [tags] identifies the frame on the wire. *)
  | Recv_pack of { tags : tag list; src : int }
      (** The matching multi-value receive: blocks until the frame
          named by the head of [tags] arrives, then lands every
          carried value at once. *)

(** {1 Instruction records} *)

val width : int
(** Ints per instruction record: record [k] of a PE is
    [instrs.((k * width) + f)] for the fields [f] below. *)

val field_kind : int
(** One of {!compute}, {!send}, {!send_pack}, {!recv}, {!recv_pack}. *)

val field_node : int
(** The instance computed, or a message's head tag: node ... *)

val field_iter : int
(** ... and iteration. *)

val field_peer : int
(** A message's destination (sends) or source (recvs); [-1] for a
    compute. *)

val field_at : int
(** A pack's offset in [pool] of its tags after the head, as
    (node, iter) pairs; 0 for anything else. *)

val field_count : int
(** Tags a message carries, head included: 1 for a [Send] or [Recv],
    the tag count for a pack (0 for an empty one); 0 for a compute. *)

val compute : int
val send : int
val send_pack : int
val recv : int
val recv_pack : int

type code = {
  instrs : int array;  (** [width] ints per instruction, program order *)
  pool : int array;  (** every pack's tags after its head, (node, iter) pairs *)
}

type t = {
  graph : Mimd_ddg.Graph.t;
  processors : int;
  code : code array;  (** one instruction sequence per processor *)
}

val length : code -> int
(** Instruction records in [instrs]. *)

val of_instrs : Mimd_ddg.Graph.t -> instr list array -> t
(** The program whose processor [j] runs [programs.(j)] ([processors]
    is the array's length). *)

val to_instrs : t -> instr list array
(** The view of every processor's code: [to_instrs (of_instrs g a) = a]. *)

val decode : code -> int -> instr
(** [decode c pc]: the view of instruction [pc] of [c]. *)

val instruction_count : t -> int

val computes_of : t -> int -> (int * int) list
(** The (node, iteration) instances computed by one processor, in
    program order. *)

(** Dense keys over the (node, iteration) pairs a program names, for
    per-instance tables that are flat arrays rather than hash tables
    keyed by boxed pairs. *)
module Keys : sig
  type t

  val scan : ((int -> int -> unit) -> unit) -> t
  (** [scan iter_pairs] sizes a key window to cover every pair that
      [iter_pairs] passes to its callback. *)

  val size : t -> int
  (** Number of keys: the window's node range times its iteration
      range. *)

  val key : t -> node:int -> iter:int -> int
  (** [(iter - iter_lo) * width + (node - node_lo)] in [[0, size)] —
      [iter * nodes + node] for a program over a graph's nodes — or
      [-1] for a pair outside the window. *)
end

type defect =
  | Unmatched_recv of { proc : int; instr : instr }
      (** no send delivers this message *)
  | Unmatched_send of { proc : int; instr : instr }
      (** no recv consumes this message *)
  | Duplicate_send of { proc : int; instr : instr }
  | Duplicate_compute of { proc : int; node : int; iter : int }
  | Self_message of { proc : int; instr : instr }

val check : t -> defect list
(** Static well-formedness: sends and recvs pair up one-to-one across
    processors, nothing is computed twice, nobody messages itself.
    (Deadlock freedom is dynamic; {!simulate} detects it.) *)

(** {1 Simulation}

    The dynamic twin of {!check}: the one definition of how a
    Send/Recv program runs on the paper's asynchronous MIMD machine
    (Section 4).  Each processor executes its program in order.
    [Compute] occupies it for the node's latency; [Send] is free for
    the sender (communication is fully overlapped) and its frame
    arrives [latency] cycles later; [Recv] blocks until its frame has
    been sent and then waits for its arrival.  Frames on a link are
    pulled in FIFO order into the receiver's stash, the discipline of
    the runtime's [Value_run.of_links]: a Recv takes its frame from the
    stash or pulls frames until it finds it, and a parked receiver
    pulls every frame that reaches its link.

    A processor that cannot proceed parks and is re-queued by the Send
    (or, on a bounded link, the pull) that frees it, so the run order,
    the per-link sequence of [latency] draws and every time are
    deterministic.  Every [Compute] and [Send] must hold its operands
    (computed or received on that processor earlier in its program, or
    from before iteration 0), and every [Recv] must name the frame's
    tags exactly. *)

type event = {
  time : int;  (** cycle at which the instruction completed *)
  proc : int;
  instr : instr;
}

type outcome = {
  makespan : int;  (** latest completion across processors *)
  proc_finish : int array;
  messages : int;  (** frames sent (each was delivered) *)
  comm_cycles : int;  (** sum of the frames' latencies *)
  busy_cycles : int;  (** total compute cycles across processors *)
  trace : event list;  (** completion order; empty unless [record] *)
  steps : int;
      (** instructions retired plus parked processors woken: a
          deterministic measure of the simulator's work *)
}

type failure =
  | Stuck of { delivered : int; blocked : (int * instr) list }
      (** no processor can proceed: frames received so far, and each
          unfinished processor with the instruction it cannot retire *)
  | Missing_operand of { proc : int; instr : instr; operand : tag }
      (** a [Compute] or [Send] on [proc] whose operand it does not hold *)
  | Frame_mismatch of { proc : int; instr : instr; sent : instr }
      (** the frame [instr] receives was sent by [sent] with other tags *)
  | Undelivered of { src : int; dst : int; instr : instr }
      (** every processor finished, but this frame was never received *)

val simulate :
  ?step:(proc:int -> pc:int -> 'p option -> 'p option) ->
  ?capacity:int ->
  ?latency:(src:int -> dst:int -> int) ->
  ?record:bool ->
  t ->
  (outcome, failure) result
(** Run to completion.  [capacity] (default unbounded) bounds each
    link's unpulled frames: a Send into a full link parks until the
    receiver pulls one, and the sender's clock then advances to that
    pull's time.  [latency] (default 0) is drawn once per frame, when
    its Send retires.  At unbounded capacity the outcome does not
    depend on [capacity] at all.
    [step] (the runtime's inline value run) is called once per
    instruction as it retires, in program order per processor, with
    its index [pc] in [code.(proc)].  A Send's result is kept as
    its frame's payload and handed to the Recv that takes the frame;
    Computes get and return [None].  [step] changes nothing in the
    outcome, [steps] included; its exceptions pass through.
    @raise Invalid_argument if [capacity < 1] or on an empty pack. *)

val pp_failure : names:(int -> string) -> Format.formatter -> failure -> unit

val pp_defect : Format.formatter -> defect -> unit
val pp_instr : names:(int -> string) -> Format.formatter -> instr -> unit
val pp : Format.formatter -> t -> unit
