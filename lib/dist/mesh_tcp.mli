(** The TCP transport of the processor mesh: per-PE listeners bound in
    the parent, children that {e dial} each other after the fork, and
    the same link layer ({!Mesh_sock.Link}) and channel discipline as
    {!Mesh_sock} (shared via {!Mesh_sock.chans_of}).

    Connection plan: PE [j] dials every peer [i < j] (capped
    exponential backoff until the peer's listener answers) and accepts
    every peer [i > j] on its own listener — deadlock-free by
    induction, since a dial never waits on the dialer's own accepts.
    Every dialed connection opens with a rendezvous handshake (a hello
    frame carrying the schedule fingerprint and the (src, dst) pair,
    acked by the acceptor), so peers compiled against different
    schedules — or wired to the wrong address — fail structurally with
    {!Handshake_failure} instead of desyncing mid-run.  TCP_NODELAY is
    set on every connection: the mesh ships many latency-bound small
    frames.

    On one host the parent binds ephemeral loopback ports (port 0) so
    concurrent runs never collide; a roster of explicit [HOST:PORT]
    addresses pins the rendezvous points instead — the building block
    [docs/DISTRIBUTED.md]'s multi-host runbook composes. *)

type addr = { host : string; port : int }

val addr_to_string : addr -> string

val addr_of_string : string -> (addr, string) result
(** Parse ["HOST:PORT"]; an empty host means loopback. *)

exception Handshake_failure of { proc : int; peer : int; reason : string }

type t
(** The parent-side mesh: one bound listener per PE. *)

type conns
(** One PE's established row of connections (child-side). *)

val create : ?roster:addr list -> fingerprint:string -> procs:int -> unit -> t
(** Bind every PE's listener {e before} forking children.  Without a
    [roster], each PE listens on an ephemeral loopback port; with one,
    PE [i] binds [roster[i]] (the list length must equal [procs]);
    each host resolves here, once, for its listener and its dialers.
    [fingerprint] is the schedule identity the handshake enforces.
    @raise Invalid_argument on a bad roster (wrong length, a host that
    does not resolve, or an address that cannot be bound, naming the
    PE and [HOST:PORT]); nothing stays open then. *)

val procs : t -> int

val retain_only : t -> proc:int -> unit
(** Child-side, right after fork: close every listener except PE
    [proc]'s own. *)

val close_parent : t -> unit
(** Parent-side, after all forks: the parent holds no listener. *)

val connect_all : ?fingerprint:string -> t -> proc:int -> conns
(** Establish PE [proc]'s full connection row (dial smaller indices,
    accept larger ones, handshake each) and close the listener.
    [fingerprint] overrides the mesh's own — fault injection for the
    must-fail handshake probe.
    @raise Handshake_failure on a rendezvous mismatch (both sides). *)

val link : conns -> peer:int -> Unix.file_descr

val chans : conns -> Mimd_runtime.Value_run.chans
(** The shared channel discipline ({!Mesh_sock.chans_of}) over this
    row: framed tagged sends, receives matched by tag through
    {!Mimd_runtime.Value_run.of_links}, stream errors as
    {!Mesh_sock.Link_down}. *)

(** {1 Handshake internals} — exposed for the framing tests and for
    peers that rendezvous outside {!connect_all}. *)

val send_hello : Unix.file_descr -> fingerprint:string -> src:int -> dst:int -> unit

val accept_hello : Unix.file_descr -> fingerprint:string -> self:int -> int
(** Validate a dialer's hello against our identity, ack, and return
    the dialer's PE index.  @raise Handshake_failure on mismatch (the
    dialer is told why before the raise). *)

val read_ack : Unix.file_descr -> proc:int -> peer:int -> unit
(** Dialer-side: block for the acceptor's verdict.
    @raise Handshake_failure on a rejection. *)

val dial_with_backoff : ?deadline:float -> addr -> Unix.file_descr
(** Connect with capped exponential backoff (10 ms doubling to 500 ms)
    until [deadline] seconds (default 15) elapse; TCP_NODELAY is set.
    @raise Invalid_argument when the host does not resolve.
    @raise Failure when the deadline passes. *)
