(** The one way this library starts a process: a {e member}, the
    running executable started with [Unix.create_process] on
    [/proc/self/exe], never forked, so it holds none of its parent's
    heap and may be spawned before or after the parent runs domains.
    It runs from this module's initializer, which finds an internal
    marker on the command line, and never returns into the
    executable's own code.  It reads one start frame from its control
    socket, its {!role}, which names the descriptors it inherited; it
    closes every other one, and its standard streams are [/dev/null]. *)

type role =
  | Pe of Mimd_runtime.Mesh_sock.part
      (** a team PE over ring links: serves {!request}s until end of
          stream on its control socket *)
  | Tcp_pe of { mesh : Mesh_tcp.t; proc : int; fingerprint : string option }
      (** a team PE that dials its row first ({!Mesh_tcp.connect_all}) *)
  | Echo of Mimd_runtime.Mesh_sock.part
      (** the link probe's peer: echoes each frame from PE 0 until that
          end closes *)
  | Cycle_timer  (** writes {!Linkprobe.calibrate_cycle_ns}'s [float] back *)

val spawn : role -> int * Unix.file_descr
(** Start a member and send it [role]: its pid and this process's
    end of its control socket.  The role's descriptors must be
    close-on-exec; they lose the flag only during the spawn.  Ignores
    [SIGPIPE] process-wide, and bumps [mimd_dist_spawns_total] on the
    default metrics registry. *)

(** {1 The team protocol} *)

type report = {
  vals : float array;  (** in the order of the PE's lowered [computes] *)
  sent : int;
  wall_ns : float;
  trace : Mimd_obs.Trace.captured option;
  unread : int;  (** frames the call left on the PE's links *)
}

type request = { key : string; form : Mimd_runtime.Lower.t option; tracing : bool }
(** One call: the program's key, its lowered form only when the member
    does not hold that key yet, and whether to trace. *)

type reply = Ready | Done of report | Failed of string
(** Once, that the PE's links are up; then one per call. *)

val hold : 'a -> 'a list -> 'a list
(** Keep the last 8 forms, newest first: member and parent apply it to
    the same requests, so every key the parent sends is held. *)
