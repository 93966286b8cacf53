(** File-system helpers shared by the layers that persist state. *)

val mkdir_p : string -> unit
(** Create [dir] and any missing parents (mode [0o755]); a directory
    that already exists, or appears concurrently, is fine.
    @raise Sys_error when a component cannot be created. *)
