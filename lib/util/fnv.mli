(** FNV-1a over native ints, the one mixer behind every canonical
    digest in the repository: schedule fingerprints
    ({!Mimd_core.Full_sched.output_fingerprint}), optimized-program
    fingerprints ({!Mimd_codegen.Comm_opt.fingerprint}) and the
    pattern-window hash of {!Mimd_core.Config_window}.

    The offset basis is truncated to OCaml's 63-bit int and every step
    keeps the hash non-negative, so a digest is the same on every
    64-bit host. *)

val basis : int
(** The starting hash. *)

val mix : int -> int -> int
(** [mix h v] folds the word [v] (its sign bit dropped) into [h]. *)

val digest : ((int -> unit) -> unit) -> string
(** [digest feed] starts at {!basis}, mixes every word [feed] passes to
    its callback, in order, and renders the result as 16 hex digits. *)
