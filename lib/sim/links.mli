(** Per-link communication latency sources.

    Section 4 of the paper: "the run time cost of each communication
    link varied between k and k + mm - 1".  Every ordered processor
    pair is a link with its own deterministic latency stream, derived
    by splitting a master seed — so the simulated cost of a message
    depends only on the link and on how many messages preceded it on
    that link, never on scheduler implementation details. *)

type t

val fixed : int -> t
(** All links always cost the given latency. *)

val uniform : base:int -> mm:int -> seed:int -> t
(** The paper's model: latency uniform in [\[base, base+mm-1\]] per
    message, independent streams per link. *)

val bursty : base:int -> mm:int -> burst_len:int -> seed:int -> t
(** Extension: each link alternates calm and congested phases (see
    {!Mimd_machine.Fluctuation.bursty}). *)

val topology_aware :
  shape:Topology.shape ->
  processors:int ->
  base:int ->
  per_hop:int ->
  mm:int ->
  seed:int ->
  t
(** Extension: latency [base + per_hop * (hops - 1)] for the link's
    distance in the given {!Topology.shape}, plus the usual uniform
    [mm] fluctuation on top.  @raise Invalid_argument on negative
    [per_hop]. *)

val sample : t -> src:int -> dst:int -> int
(** Latency of the next message on the (src, dst) link. *)

val describe : t -> string
