(** Bounded, lock-based FIFO channels between OCaml 5 domains.

    One channel carries the messages of one directed processor pair
    (producer domain -> consumer domain), implementing the [Send] /
    [Recv] protocol of {!Mimd_codegen.Program} on a real machine: the
    producer's [send] blocks only when the channel is full (bounded
    buffering models finite network capacity; the paper assumes
    communication is fully overlapped, which a large enough capacity
    recovers), the consumer's [recv] blocks until a message is
    available.

    Channels are single-producer single-consumer by discipline — the
    runtime creates one per ordered processor pair — but the lock-based
    implementation is safe under any number of users.

    Every blocking operation is {e cancellable}: {!cancel} wakes all
    waiters and makes any subsequent (or in-flight) operation raise
    {!Cancelled}.  The watchdog uses this to tear down a deadlocked
    execution instead of hanging forever. *)

type 'a t

exception Cancelled
(** Raised by {!send} and {!recv} once the channel has been
    {!cancel}led. *)

val create : capacity:int -> 'a t
(** @raise Invalid_argument if [capacity < 1]. *)

val send : 'a t -> 'a -> unit
(** Enqueue, blocking while the channel is full.
    @raise Cancelled if the channel is (or becomes) cancelled. *)

val recv : 'a t -> 'a
(** Dequeue the oldest message, blocking while the channel is empty.
    @raise Cancelled if the channel is (or becomes) cancelled. *)

val try_recv : 'a t -> 'a option
(** Non-blocking dequeue; [None] when empty.
    @raise Cancelled if the channel is cancelled. *)

val cancel : 'a t -> unit
(** Idempotent: wake every waiter and poison the channel. *)

val length : 'a t -> int
(** Messages currently buffered. *)

val capacity : 'a t -> int
