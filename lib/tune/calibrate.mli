(** Fold link-cost measurements into a scheduler cost model.

    Measurements come from two places: {!Mimd_dist.Linkprobe}'s RTT
    matrix (via {!samples_of_matrix}) and the per-PE
    [run.send]/[run.recv] trace spans the value runtime records on
    both the domain mesh and the socket mesh (via
    {!samples_of_trace}).  Repeated observations of a link are
    smoothed with an exponentially-weighted moving average, so one
    noisy run cannot yank the schedule around; the result rounds into
    the {!Mimd_machine.Cost_model.Matrix} the scheduler prices with.

    This library sits {e below} [Mimd_server]/[Mimd_dist], so it never
    calls the probe itself — the CLI converts probe results into
    samples. *)

type sample = { src : int; dst : int; cost : float }
(** One observation: a message from [src] to [dst] cost [cost]
    abstract cycles. *)

type t
(** Mutable calibration state for a fixed processor count. *)

val create : ?alpha:float -> procs:int -> unit -> t
(** [alpha] (default 0.3) is the EWMA weight of the newest
    observation.  @raise Invalid_argument on [procs < 1] or [alpha]
    outside (0, 1]. *)

val procs : t -> int

val updates : t -> int
(** How many non-empty batches {!observe} has folded in. *)

val observe : t -> sample list -> unit
(** Fold a batch of samples in (EWMA per link; the first observation
    of a link seeds it directly).  Out-of-range, diagonal and
    non-finite samples are ignored. *)

val observed_links : t -> int
(** Off-diagonal links with at least one observation. *)

val matrix : ?fallback:int -> t -> int array array
(** The rounded per-link cost matrix.  Unobserved links cost
    [fallback] (default: the worst observed link, or 1) — the
    conservative upper bound.  Diagonal is 0. *)

val model : ?fallback:int -> t -> Mimd_machine.Cost_model.t
(** [matrix] wrapped as a {!Mimd_machine.Cost_model.Matrix}. *)

val measured : t -> float array array
(** The raw (unrounded) EWMA per link, 0 where unobserved — the
    [measured] input {!Drift.check} expects, and the shape
    {!samples_of_matrix} accepts for re-seeding a fresh [t]. *)

val samples_of_matrix : float array array -> sample list
(** One sample per positive off-diagonal entry — the shape
    {!Mimd_dist.Linkprobe.effective_k_matrix} returns. *)

val samples_of_trace : cycle_ns:float -> unit -> sample list
(** Harvest the buffered [run.send]/[run.recv] spans (the value
    runtime tags each with its PE and the far endpoint) into samples,
    dividing span durations by [cycle_ns] to convert wall time into
    abstract cycles.  Includes spans absorbed from forked socket-mesh
    children.  @raise Invalid_argument on non-positive [cycle_ns]. *)

(** {1 Persistence}

    Calibration survives process restarts as a small line-oriented
    text file (format documented in [docs/TUNING.md]) under the same
    cache directory the compiled-schedule store uses. *)

val default_dir : unit -> string
val default_path : unit -> string

val save : t -> path:string -> unit
(** Atomic (write-then-rename).  Creates parent directories. *)

val load : path:string -> (t, string) result

val pp : Format.formatter -> t -> unit
