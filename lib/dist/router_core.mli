(** The serve fleet's routing decisions as a pure state machine.

    {!step} takes one event — a line or an EOF from a client or a
    worker, or the outcome of a spawn — and returns the next state and
    the actions the shell ({!Router}) must perform.  The core owns the
    pending table, the admission count, each slot's liveness (which is
    what {!Ring.lookup} sees), the respawn budgets, the {!Respawn}
    breaker and the supervision events; it touches no file descriptor,
    clock, process or shared metrics registry.  States are persistent:
    [step] never changes the state it is given, so a test can replay
    any interleaving and compare consecutive states.

    Slots.  A slot is [Booting] from its spawn until its boot ping is
    answered (the shell sends the ping when it spawns the worker), then
    [Live], then [Dead] once its connection closes.  Only a [Live]
    slot is ever forwarded to.  Before every slot has first come up, a
    dead slot is a boot failure ({!boot_status}); after that a death
    re-shards the slot's in-flight requests onto the survivors and,
    with a respawn budget, asks the shell to spawn the slot again.

    Shutdown drains.  After a [shutdown] request new compiles get an
    [overload] error, every admitted request still gets exactly one
    reply (the worker's, or an [internal] error when its worker exits
    first), and only then does the core retire the workers and stop. *)

type config = {
  workers : int;  (** fleet size (>= 1) *)
  max_inflight : int;  (** fleet-wide compile admission bound *)
  respawn : int;  (** per-slot respawn budget; 0 disables supervision *)
  paths : string array;  (** each slot's socket path, shown in [stats] *)
}

type event =
  | Client_line of { client : int; line : string }
  | Client_closed of { client : int }
  | Worker_line of { slot : int; line : string }
  | Worker_closed of { slot : int }
  | Spawned of { slot : int; pid : int }
      (** the slot's worker is spawned and its boot ping sent *)
  | Spawn_failed of { slot : int; reason : string }

type action =
  | Reply of { client : int; line : string }
  | Forward of { slot : int; line : string }
  | Spawn of { slot : int }
      (** spawn the slot's worker, send it the boot ping, and answer with
          [Spawned] or [Spawn_failed] *)
  | Retire of { slot : int }  (** ask the slot's worker to exit *)
  | Stop  (** every admitted request is answered: the router may exit *)

type state

val create : config -> state * action list
(** Every slot starts unspawned; the actions spawn the whole fleet. *)

val step : state -> now:float -> event -> state * action list
(** [now] (seconds) stamps supervision events and feeds the respawn
    breaker's window.  After [Stop] every event is ignored. *)

val shard_key : Mimd_server.Protocol.compile_params -> string
(** The digest requests are sharded by: loop source, processors, [k]
    and iterations.  Deterministic across processes. *)

val boot_line : string
(** The boot ping the shell sends a freshly spawned worker. *)

val retire_line : string
(** The frame that asks a worker to exit. *)

(** {1 Observers} *)

val boot_status : state -> [ `Booting | `Up | `Failed of string ]
(** [`Up] once every slot has answered its first boot ping;
    [`Failed] when a slot died or failed to spawn before that. *)

val stopped : state -> bool
val inflight : state -> int
val pending_slots : state -> int list
(** The slot each forwarded, unanswered request waits on. *)

val slot_status : state -> int -> [ `Booting | `Live | `Dead ]
val budgets : state -> int list
val breaker_tripped : state -> bool
val events : state -> Mimd_server.Json.t list
(** Supervision events ([respawn], [respawn_failed],
    [breaker_tripped]), newest first, at most 32. *)
