(** How a team's run ends: the one rule that names the faulty PE, as
    a pure function over the events its PEs send.

    A PE runs on a domain or in a process of its own and is heard from
    once, when it stops: it reports, or it fails.  Its failure is its
    {e own} (it raised, it died) or a {e symptom}: a peer's death seen
    from the other end of a link ([link down:]).  The run waits for
    every PE; [timeout] seconds with no event is a stall.  Once a PE
    has failed, the others get exactly one more bound, counted from
    that first failure; then the run fails with the lowest-numbered
    PE's own failure, or, when every failure is a symptom, the
    lowest-numbered one.  So a fault names the same PE whatever order
    the events arrive in.  {!Exec_compiled.run} and
    [Mimd_dist.Runner] are [select] shells over {!run}.  States are
    persistent; times are nanoseconds on the monotonic clock
    ({!Mimd_obs.Clock.now_ns}). *)

type 'f event =
  | Report of int  (** PE [j] finished and reported *)
  | Own of int * 'f  (** PE [j] failed on its own account *)
  | Symptom of int * 'f  (** PE [j] failed because a peer did *)
  | Quiet  (** no event came; ignored before the deadline *)

type 'f verdict = Done | Failed of 'f | Stalled of int list  (** the PEs waited on *)

type 'f next =
  | Wait of { pending : int list; until : int }
      (** wait for a PE in [pending] (ascending) until [until]: one
          bound after the last event, or after the first failure *)
  | End of 'f verdict

type 'f t

val start : procs:int -> timeout:float -> now:int -> 'f t

val step : 'f t -> now:int -> 'f event -> 'f t
(** A second event from the same PE is ignored. *)

val next : 'f t -> 'f next

val run :
  procs:int ->
  timeout:float ->
  now:(unit -> int) ->
  wait:(int list -> float -> 'f event list) ->
  'f verdict
(** Drive {!start}, {!step} and {!next}: [wait pending seconds] blocks
    up to [seconds] for the PEs in [pending] and returns the events
    that came, [[]] when none did (an interrupted wait may return
    early). *)
