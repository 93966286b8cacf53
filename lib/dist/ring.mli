(** Consistent-hash ring for the serve fleet.

    Each worker owns 64 pseudo-random points (MD5-derived, so
    deterministic across processes and runs); a key belongs to the
    first point clockwise from its hash.  Losing a worker moves only
    that worker's keys — the survivors' memory-LRU caches stay hot,
    which is the point of sharding the fleet by request fingerprint in
    the first place. *)

type t

val create : int -> t
(** [create n] builds the ring for workers [0 .. n-1]; 64 points per
    worker smooth the key split to roughly [1/n] per worker.
    @raise Invalid_argument when [n < 1]. *)

val workers : t -> int

val shard : t -> key:string -> int
(** The key's owner, health ignored: deterministic for a fixed ring. *)

val lookup : t -> key:string -> alive:(int -> bool) -> int option
(** The first {e live} worker clockwise from the key's point — equal
    to {!shard} while its owner is alive, the next live owner
    otherwise.  [None] when no worker is alive. *)
