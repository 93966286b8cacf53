(** Framing for the socket backend, in two frame formats.

    A {e marshal frame} is ["MDW1"], a big-endian u32 payload length,
    then the [Marshal] image of a value: the supervisor's
    control/report channels of a {!Team} and the TCP handshake speak
    it ({!write}, {!read}).  A {e link frame} is the binary value
    frame of the mesh links ({!encode}, {!decode}): {!Mesh_sock}'s
    links carry nothing else.  Either way a stream that
    desynchronises, truncates, or carries garbage surfaces as a
    structured {!error}, never as a hang or a wild allocation (the
    framing fuzz tests and the codec property pin this down). *)

val magic : string
val header_len : int

val default_max_frame : int
(** Payload-length bound enforced by {!read} and {!decode} (64 MiB). *)

type error =
  | Closed  (** clean EOF on a frame boundary *)
  | Bad_magic  (** first 4 bytes are not {!magic} *)
  | Oversized of int  (** declared length negative or over the bound *)
  | Truncated  (** EOF inside a frame *)
  | Decode_failure  (** payload is not a marshalled value *)
  | Unknown_kind of int  (** a link frame's kind byte is neither Single nor Pack *)
  | Length_mismatch of int
      (** a link frame's declared body length does not fit its kind
          (and, for a Pack, its count) *)

val error_to_string : error -> string

exception Wire_error of error

val write : Unix.file_descr -> 'a -> unit
(** Marshal [v] and write one complete frame (handles short writes).
    The value must not contain functions or custom blocks that
    [Marshal] rejects.
    @raise Unix.Unix_error when the fd is closed/broken. *)

val frame : 'a -> Bytes.t
(** The whole frame {!write} sends, header included: for a writer that
    sends one value to many readers, or paces its own writes. *)

val read : Unix.file_descr -> ('a, error) result
(** Read one complete frame; a payload over {!default_max_frame} is
    [Oversized].  Unsafe cast on success — reader and
    writer must agree on the type, which the runner's fixed
    per-channel protocols guarantee. *)

(** {1 Link frames}

    ["MDL1"], a big-endian u32 body length, then the body: the tag's
    node and iteration as big-endian int64, a kind byte (0 = Single,
    1 = Pack), then for a Single the value's IEEE bits as an int64
    (33 bytes in all) and for a Pack a u32 count and that many
    (node, iteration, bits) int64 triples.  Values travel as bits, so
    NaN payloads and [-0.] round-trip bit for bit. *)

type frame = (int * int) * Value_run.payload
(** A tag and its payload: what {!Value_run.of_links} pulls.  The
    sending side passes the tag as two ints ({!encode}); the bytes are
    the same either way. *)

val frame_size : Value_run.payload -> int
(** Bytes of the link frame carrying this payload, header included. *)

val encode : Bytes.t -> node:int -> iter:int -> Value_run.payload -> int
(** Write the link frame of instance (node, iter) at offset 0 of the
    buffer and return its size ({!frame_size}).  Allocates nothing for
    a Single.
    @raise Invalid_argument when the buffer is shorter than the
    frame. *)

val decode : Bytes.t -> pos:int -> len:int -> (frame, error) result
(** Decode the link frame at the start of the [len] bytes at [pos]:
    [Ok frame] when a whole frame is there (its {!frame_size} bytes),
    otherwise why not — [Closed] for no bytes at all, [Truncated] for
    a prefix of a well-formed frame (read more, or, at end of stream,
    report it), and [Bad_magic], [Oversized] (body over
    {!default_max_frame}), [Unknown_kind] or [Length_mismatch] as
    soon as the bytes that show it are present.  Pure: reads the
    buffer, changes nothing. *)
