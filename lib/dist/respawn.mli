(** The respawn-storm circuit breaker of {!Router}'s worker respawn
    supervision.  {!Runner}'s whole-run retry does not use it: its
    budget is the [?respawn] count of a call.

    A sliding window over recent respawn instants: while fewer than
    [limit] respawns happened in the last [window] seconds, a respawn
    is admitted and recorded; the respawn that would exceed the limit
    trips the breaker instead, and a tripped breaker refuses every
    further respawn — a worker that dies because of its environment
    dies again immediately after every respawn, and an unbounded
    supervisor turns one fault into a fork bomb.  There is no
    automatic reset: the condition the breaker detects does not fix
    itself, so recovery is an operator action (restart the fleet).

    Mutable and not thread-safe; {!Router_core} keeps its states
    persistent by recording on a {!copy}. *)

type t

val create : ?window:float -> limit:int -> unit -> t
(** [window] defaults to 10 s.  @raise Invalid_argument when
    [limit < 1] or [window <= 0]. *)

val record : ?now:float -> t -> bool
(** Ask to respawn at instant [now] (default: the wall clock; tests
    pass explicit instants).  [true]: admitted and counted.  [false]:
    refused — either the breaker was already tripped, or this call
    tripped it. *)

val copy : t -> t
(** An independent breaker with the same history. *)

val tripped : t -> bool
val total : t -> int
(** Respawns admitted over the breaker's lifetime. *)

val limit : t -> int
val window : t -> float
