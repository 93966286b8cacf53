module Program = Mimd_codegen.Program
module Graph = Mimd_ddg.Graph
module Ast = Mimd_loop_ir.Ast
module Trace = Mimd_obs.Trace
module Metrics = Mimd_obs.Metrics
module Lower = Mimd_runtime.Lower
module Mesh_sock = Mimd_runtime.Mesh_sock
module Team = Mimd_runtime.Team

type failure =
  | Stalled of { timeout : float; waiting : int list }
  | Child_exit of { proc : int; status : string }
  | Child_error of { proc : int; message : string }

exception Dist_error of failure

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigpipe then "SIGPIPE"
  else Printf.sprintf "signal %d" s

let status_string = function
  | Unix.WEXITED n -> Printf.sprintf "exited with code %d" n
  | Unix.WSIGNALED s -> Printf.sprintf "killed by %s" (signal_name s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by %s" (signal_name s)

let describe = function
  | Stalled { timeout; waiting } ->
    Printf.sprintf
      "distributed execution stalled: no child reported for %.1f s; waiting on PE %s"
      timeout
      (String.concat ", " (List.map string_of_int waiting))
  | Child_exit { proc; status } ->
    Printf.sprintf "child for PE %d died without reporting (%s)" proc status
  | Child_error { proc; message } -> Printf.sprintf "child for PE %d failed: %s" proc message

type transport =
  | Unix_sockets
  | Tcp of { roster : Mesh_tcp.addr list option; handshake_fault : int option }

let fingerprint = Team.fingerprint

let respawns_counter () =
  Metrics.counter ~help:"Distributed workers/runs respawned after a failure"
    Metrics.default "mimd_dist_respawns_total"

(* ---------------------------------------------------------------- *)
(* The team: p spawned PE processes that run call after call           *)

(* This process's warm Unix-socket team, and the pids of the team
   started last: the one the current call runs on. *)
let warm = Team.slot ()
let pids = ref [||]
let shutdown () = Team.clear warm

(* A team of the spawned member kind: member [j] is the process [role
   j] starts, ended by SIGKILL and a reap.  Once the members hold their
   mesh rows, this process drops its copies: no link endpoint, ring or
   listener. *)
let start ?once ~timeout ~procs mesh () =
  let role j =
    match mesh with
    | `U m -> Member.Pe (Mesh_sock.part m ~proc:j)
    | `T (m, handshake_fault) ->
      let fingerprint = if handshake_fault = Some j then Some "0000deadbeef0000" else None in
      Member.Tcp_pe { mesh = m; proc = j; fingerprint }
  in
  let spawned () =
    match mesh with `U m -> Mesh_sock.close_all m | `T (m, _) -> Mesh_tcp.close_parent m
  in
  let members = Array.make procs 0 and live = Array.make procs false in
  pids := members;
  let spawn j =
    let pid, ctl = Member.spawn (role j) in
    members.(j) <- pid;
    live.(j) <- true;
    ctl
  in
  let cancel () =
    Array.iteri
      (fun j pid -> if live.(j) then try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      members
  in
  let reap j =
    if not live.(j) then None
    else begin
      live.(j) <- false;
      Trace.span ~cat:"dist" ~args:[ ("proc", string_of_int j) ] "dist.reap" (fun () ->
          match Unix.waitpid [] members.(j) with
          | _, status -> Some status
          | exception Unix.Unix_error _ -> None)
    end
  in
  let finish () = Array.iteri (fun j _ -> ignore (reap j)) members in
  let exited j = match reap j with Some st -> status_string st | None -> "already reaped" in
  Team.start ?once { Team.layer = "dist"; spawn; spawned; cancel; finish; exited } ~procs ~timeout

let lower exec ~loop ~program () =
  match exec with `Compiled -> Lower.run ~loop ~program () | `Compiled_form l -> l

let failure ~timeout = function
  | Team.Stalled { waiting; _ } -> Stalled { timeout; waiting }
  | Exited { proc; status } -> Child_exit { proc; status }
  | Raised { proc; message; _ } -> Child_error { proc; message }

let run_once ?(timeout = 5.0) ?sabotage ?(transport = Unix_sockets) ?(exec = `Compiled)
    ~loop ~program () =
  if not (Ast.is_flat loop) then invalid_arg "Runner.run: loop must be flat";
  if List.length (Ast.assignments loop) <> Graph.node_count program.Program.graph then
    invalid_arg "Runner.run: statement/node count mismatch";
  (match exec with
  | `Compiled_form l -> Lower.check_form ~caller:"Runner.run" l ~program
  | `Compiled -> ());
  let procs = program.Program.processors in
  try
    let team =
      match transport with
      | Unix_sockets ->
        Team.take warm ~procs ~start:(fun () ->
            start ~timeout ~procs (`U (Mesh_sock.create ~procs ())) ())
      | Tcp { roster; handshake_fault } ->
        (* The handshake binds this loop and program, so a TCP team
           lives for one call, and the warm team retires first. *)
        shutdown ();
        let mesh = Mesh_tcp.create ?roster ~fingerprint:(fingerprint ~loop ~program) ~procs () in
        start ~once:true ~timeout ~procs (`T (mesh, handshake_fault)) ()
    in
    let shipped = Option.map (fun f () -> f (Array.copy !pids)) sabotage in
    Team.call team ~timeout ?shipped ~lower:(lower exec ~loop ~program) ~loop ~program ()
  with Team.Team_failed f -> raise (Dist_error (failure ~timeout f))

(* Respawn supervision for a one-shot run.  A run is a deterministic
   pure function of (loop, program, inputs), and a crashed or stalled
   PE takes its peers' channel state with it — so the sound respawn
   unit is the {e whole run}, on a new team (every failure path above
   already SIGKILLed and reaped the previous attempt).  Crashes and
   stalls are environmental, and so is a "link down:" child error: its
   root cause is a peer's death.  Every other Child_error is the
   child's own deterministic exception (a handshake mismatch, a codegen
   bug) and recurs on retry. *)
let retryable = function
  | Child_exit _ | Stalled _ -> true
  | Child_error { message; _ } -> String.starts_with ~prefix:"link down:" message

let run ?timeout ?sabotage ?transport ?exec ?(respawn = 0) ~loop ~program () =
  let rec attempt remaining =
    match run_once ?timeout ?sabotage ?transport ?exec ~loop ~program () with
    | outcome -> outcome
    | exception Dist_error f when retryable f && remaining > 0 ->
      Metrics.inc (respawns_counter ());
      Trace.instant
        ~args:[ ("failure", describe f); ("remaining", string_of_int (remaining - 1)) ]
        "dist.respawn";
      attempt (remaining - 1)
  in
  attempt (max 0 respawn)
