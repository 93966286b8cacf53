(** The one team protocol: p members, one per scheduled processor,
    running call after call over one mesh, and the parent that drives
    them.  Spawned processes ([Mimd_dist.Runner]) and domains
    ({!Exec_compiled.run}) are its two {!kind}s of member.

    A member builds its links, says {!Ready}, then serves requests:
    a program key, with its lowered form only the first time the team
    sees that key, and the tracing switch.  It runs the call, settles
    its links ({!Mesh_sock.settle}) and sends one {!reply}.  The
    parent marshals a request once, writes it to every member within
    the stall bound and collects the replies by {!Collect}'s rule;
    the parent keeps the keys of the last 8 forms and each member the
    forms themselves.  A team
    {e retires} (no further call; its members end as their kind says)
    on any failure or stall, after a call that left a frame unread on
    a link, and after its one call when started [~once]. *)

type report = {
  vals : float array;  (** in the order of the PE's lowered [computes] *)
  sent : int;
  wall_ns : float;
  trace : Mimd_obs.Trace.captured option;  (** a spawned member's spans *)
  unread : int;  (** frames the call left on the PE's links *)
}

type reply =
  | Ready  (** once, when the member's links are up *)
  | Done of report
  | Failed of { pc : int; message : string }
      (** raised at instruction [pc] (the PE's instruction count when
          settling) *)

val fingerprint : loop:Mimd_loop_ir.Ast.loop -> program:Mimd_codegen.Program.t -> string
(** A program's key: a digest of the exact loop and program pair. *)

val serve :
  Unix.file_descr ->
  proc:int ->
  traces:bool ->
  worker:
    (lowered:Lower.t -> proc:int -> chans:Value_run.chans -> unit ->
     (float array * int, int * exn) result) ->
  (unit -> Mesh_sock.row) ->
  unit
(** A member on its control socket: build the row, then serve until end
    of stream there or a failed call, its last.  A member that
    [traces] (a process) switches tracing as each request says and
    captures and clears its spans; a domain, whose spans land in the
    parent's process anyway, does neither. *)

type kind = {
  layer : string;  (** span prefix: [dist] or [runtime] *)
  spawn : int -> Unix.file_descr;  (** start member [j]: this end of its control socket *)
  spawned : unit -> unit;  (** after the spawns, whether or not they succeeded *)
  cancel : unit -> unit;  (** stop every started member's work now *)
  finish : unit -> unit;  (** after the control ends close: end every started member *)
  exited : int -> string;  (** why member [j]'s control socket ended with no reply *)
}

type failure =
  | Stalled of { waiting : int list; replies : reply option array }
      (** [replies] includes those the waiting members sent once cancelled *)
  | Exited of { proc : int; status : string }
  | Raised of { proc : int; pc : int; message : string }

exception Team_failed of failure
(** Raised after the team retires, with the failure {!Collect} names. *)

val symptom : failure -> bool
(** A [Raised] whose message starts [link down:]: a peer's death seen
    from the other end of a link. *)

type t

val start : ?once:bool -> kind -> procs:int -> timeout:float -> t
(** Spawn the members ([<layer>.spawn]) and wait up to [timeout] s for
    each to be ready ([<layer>.ready]).  Ignores [SIGPIPE]. *)

val call :
  t ->
  timeout:float ->
  ?shipped:(unit -> unit) ->
  lower:(unit -> Lower.t) ->
  loop:Mimd_loop_ir.Ast.loop ->
  program:Mimd_codegen.Program.t ->
  unit ->
  Value_run.outcome
(** Run one call inside [<layer>.run], absorb the members' captured
    spans (member [j]'s on tracks offset by [(j + 1) * 1000]) and
    fold the reports ({!Value_run.finalize}).  A held form is found by [==] on [loop] and
    [program], then by {!fingerprint}; else [lower ()] makes it.  The
    request ships within [timeout] ([<layer>.ship]), [shipped] runs,
    and the replies come with [timeout] as the stall bound
    ([<layer>.collect]).  A stall cancels the members and reads each
    waiting one's reply before the control ends close. *)

type slot
(** A process's warm team of one kind. *)

val slot : unit -> slot
(** An empty slot, {!clear}ed at exit. *)

val take : slot -> procs:int -> start:(unit -> t) -> t
(** The slot's team if it is live, this process's and of [procs]
    members; else the old one is cleared and [start ()] kept. *)

val clear : slot -> unit
(** Retire the slot's team, if any; a process forked from its owner
    only closes its copies of the control ends. *)
