(** Single-producer single-consumer byte rings in a shared mapping of
    a memfd, with a socket as each ring's doorbell.

    Every process that maps the memfd's descriptor shares the rings,
    whether it made them or inherited the descriptor across a spawn:
    one process copies bytes into a ring ({!write}) and
    another copies them out ({!read}), with no system call on either
    side.  A side that must wait — a reader with nothing to read, a
    writer with no room — parks: {!park_reader} or {!park_writer} sets
    its flag and looks once more, and only when that look finds
    nothing does the caller block on the doorbell socket.  The other
    side's next {!read} or {!write} sees the flag, clears it and sends
    one byte on the doorbell.  The flag and the index are each written
    before the other side's is read (sequentially consistent on both
    sides), so a parked side is always rung (spsc_stubs.c).

    Every operation here is a noalloc C stub: OCaml code never reads
    or writes the shared pages itself.  The process that maps the
    rings does not touch their pages; only the bytes a ring carries
    are ever backed. *)

type mapping
(** Some rings of one capacity, in one shared mapping of a memfd. *)

val map : ?fd:Unix.file_descr -> rings:int -> capacity:int -> unit -> mapping
(** Map [rings] rings of [capacity] data bytes each from [fd], the
    memfd of another mapping ({!fd}) that this process inherited, or
    else from a fresh close-on-exec memfd, whose rings are empty.  The
    mapping owns the descriptor.
    @raise Invalid_argument when a count is negative or [capacity] is
    not positive.
    @raise Failure when the memfd cannot be made or mapped. *)

val fd : mapping -> Unix.file_descr
(** The memfd, close-on-exec: what a process spawned to share the
    rings inherits. *)

val unmap : mapping -> unit
(** Release the mapping in this process and close its descriptor;
    later calls do nothing.  Every {!ring} of it is then unusable
    here. *)

type ring
(** One direction of one link. *)

val ring : mapping -> int -> ring
(** The [i]-th ring of a live mapping.
    @raise Invalid_argument out of range or after {!unmap}. *)

val write : ring -> doorbell:Unix.file_descr -> Bytes.t -> int -> int -> int
(** [write r ~doorbell buf off len] copies up to [len] bytes of [buf]
    from [off] into the ring, as many as it has room for, and returns
    that count (0 when the ring is full).  When the reader was parked,
    it rings [doorbell].
    @raise Invalid_argument when [off] and [len] do not fit [buf]. *)

val read : ring -> doorbell:Unix.file_descr -> Bytes.t -> int -> int -> int
(** [read r ~doorbell buf off len] copies up to [len] available bytes
    into [buf] at [off] and returns that count (0 when the ring is
    empty).  When the writer was parked on a full ring, it rings
    [doorbell].
    @raise Invalid_argument when [off] and [len] do not fit [buf]. *)

val park_reader : ring -> int
(** Set the reader's parked flag and return the bytes available.  A
    non-zero count clears the flag again: read instead of parking.  At
    0 the caller blocks until its doorbell is readable. *)

val park_writer : ring -> int
(** Set the writer's parked flag and return the free bytes.  A
    non-zero count clears the flag again: write instead of parking.
    At 0 the caller blocks until its doorbell is readable. *)

val drain : Unix.file_descr -> int
(** Consume the doorbell bytes waiting on a non-blocking socket after
    a wake-up: their count, 0 at end of stream (the peer is gone), or
    [-1] when there were none. *)
