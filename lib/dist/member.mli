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
      (** a team PE over ring links: {!Mimd_runtime.Team.serve} until
          end of stream on its control socket *)
  | Tcp_pe of { mesh : Mesh_tcp.t; proc : int; fingerprint : string option }
      (** a team PE that dials its row first ({!Mesh_tcp.connect_all}) *)
  | Echo of Mimd_runtime.Mesh_sock.part
      (** the link probe's peer: echoes each frame from PE 0 until that
          end closes *)
  | Cycle_timer  (** writes {!Linkprobe.calibrate_cycle_ns}'s [float] back *)
  | Serve_worker of {
      listener : Unix.file_descr;
      path : string;
      jobs : int;
      queue_depth : int;
      cache_dir : string option;
      validate : bool;
      trace : string option;
    }
      (** a route fleet worker ({!Router}): a compile service on the
          [listener] its router bound at [path], until it is asked to
          stop.  With [trace], it turns tracing on and streams its
          spans to that path. *)

val spawn : role -> int * Unix.file_descr
(** Start a member and send it [role]: its pid and this process's
    end of its control socket.  The role's descriptors must be
    close-on-exec; they lose the flag only during the spawn.  Ignores
    [SIGPIPE] process-wide, and bumps [mimd_dist_spawns_total] on the
    default metrics registry. *)
