(** Per-processor programs with explicit message passing.

    The transformed loop of paper Figures 7(e) and 10: each processor
    executes its own instruction sequence in order; values crossing
    processors travel in messages identified by the producing node
    instance.  [Send] is non-blocking (communication is fully
    overlapped, Section 4); [Recv] blocks until the named message has
    arrived.  These programs are what the simulated multiprocessor
    ({!Mimd_sim}) executes. *)

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

type t = {
  graph : Mimd_ddg.Graph.t;
  processors : int;
  programs : instr list array;  (** one instruction sequence per processor *)
}

val instruction_count : t -> int

val computes_of : t -> int -> (int * int) list
(** The (node, iteration) instances computed by one processor, in
    program order. *)

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
    (Deadlock freedom is dynamic; the simulator detects it.) *)

val pp_defect : Format.formatter -> defect -> unit
val pp_instr : names:(int -> string) -> Format.formatter -> instr -> unit
val pp : Format.formatter -> t -> unit
