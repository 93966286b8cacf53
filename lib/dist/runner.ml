module Program = Mimd_codegen.Program
module Graph = Mimd_ddg.Graph
module Ast = Mimd_loop_ir.Ast
module Value_run = Mimd_runtime.Value_run
module Trace = Mimd_obs.Trace
module Clock = Mimd_obs.Clock
module Metrics = Mimd_obs.Metrics
module Lower = Mimd_runtime.Lower
module Wire = Mimd_runtime.Wire
module Mesh_sock = Mimd_runtime.Mesh_sock
module Collect = Mimd_runtime.Collect

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

(* A "link down:" child error is a peer's death observed from the
   other end of a link, a symptom; every other failure is the child's
   own. *)
let symptom = function
  | Child_error { message; _ } -> String.starts_with ~prefix:"link down:" message
  | Child_exit _ | Stalled _ -> false

type transport =
  | Unix_sockets
  | Tcp of { roster : Mesh_tcp.addr list option; handshake_fault : int option }

(* The identity the TCP rendezvous handshake enforces: a digest of the
   exact loop + program pair every peer must be executing.  Two
   parents that compiled independently agree on it iff they compiled
   the same schedule. *)
let fingerprint ~loop ~program =
  Digest.to_hex (Digest.string (Marshal.to_string (loop, program) []))

let respawns_counter () =
  Metrics.counter ~help:"Distributed workers/runs respawned after a failure"
    Metrics.default "mimd_dist_respawns_total"

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ---------------------------------------------------------------- *)
(* The team: p spawned PE processes that run call after call           *)

(* A form the parent holds.  Its key is the {!fingerprint} of the loop
   and program it was lowered from; the loop and program themselves
   are kept so that a caller passing the same values again finds the
   form by [==] without hashing them. *)
type held = { key : string; loop : Ast.loop; program : Program.t; form : Lower.t }

type team = {
  procs : int;
  owner : int;  (* the pid that spawned the members: only it may end them *)
  pids : int array;
  ctl : Unix.file_descr array;  (* the parent's end of each member's control socket *)
  reaped : bool array;
  mutable retired : bool;  (* the control ends are closed: the team takes no call *)
  mutable held : held list;  (* newest first, by {!Member.hold} *)
}

let current : team option ref = ref None

let reap t j =
  if t.reaped.(j) then None
  else begin
    t.reaped.(j) <- true;
    Trace.span ~cat:"dist" ~args:[ ("proc", string_of_int j) ] "dist.reap" (fun () ->
        match Unix.waitpid [] t.pids.(j) with
        | _, status -> Some status
        | exception Unix.Unix_error _ -> None)
  end

let close_ctl t =
  if not t.retired then begin
    t.retired <- true;
    Array.iter close_quietly t.ctl
  end

(* Retire a team: it takes no further call.  Its control ends close,
   and every member is SIGKILLed and reaped. *)
let retire t =
  (match !current with Some c when c == t -> current := None | _ -> ());
  close_ctl t;
  Array.iteri
    (fun j pid ->
      if not t.reaped.(j) then try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    t.pids;
  Array.iteri (fun j _ -> ignore (reap t j)) t.pids

let fail t failure =
  retire t;
  raise (Dist_error failure)

(* One reply from every member, by select across the control sockets,
   ended by {!Mimd_runtime.Collect}'s rule: [timeout] seconds with no
   reply anywhere is a stall, and after the first failure the others
   get one more bound before the team is retired with the failure of
   the lowest-numbered PE whose failure is its own.  A member's death
   reaches its peers as "link down:", so the first failure to arrive
   is often the symptom, not the cause. *)
let gather t ~timeout =
  let replies = Array.make t.procs None in
  let settle j =
    let failed f = if symptom f then Collect.Symptom (j, f) else Own (j, f) in
    match (Wire.read t.ctl.(j) : (Member.reply, Wire.error) result) with
    | Ok (Member.Failed message) -> failed (Child_error { proc = j; message })
    | Ok r ->
      replies.(j) <- Some r;
      Collect.Report j
    | Error _ ->
      let status = match reap t j with Some st -> status_string st | None -> "already reaped" in
      failed (Child_exit { proc = j; status })
  in
  let wait pending seconds =
    match Unix.select (List.map (fun j -> t.ctl.(j)) pending) [] [] seconds with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    | ready, _, _ ->
      List.filter_map (fun j -> if List.mem t.ctl.(j) ready then Some (settle j) else None) pending
  in
  match Collect.run ~procs:t.procs ~timeout ~now:Clock.now_ns ~wait with
  | Done -> Array.map Option.get replies
  | Failed f -> fail t f
  | Stalled waiting -> fail t (Stalled { timeout; waiting })

(* Retire this process's warm team, if any.  In a process forked from
   the team's owner, only drop these copies of its control ends: the
   members are not this process's to end. *)
let shutdown () =
  match !current with
  | None -> ()
  | Some t ->
    current := None;
    if t.owner = Unix.getpid () then retire t else close_ctl t

let exit_hook = lazy (at_exit shutdown)

(* Spawn the members, one per processor, each handed its row of
   [mesh] (over Unix sockets: its socketpairs and the rings' memfd,
   which this process unmaps right after the spawns), and return once
   every member has said its links are up.  Every program, the first
   included, is shipped by the call that runs it. *)
let start ~timeout ~procs mesh =
  Lazy.force exit_hook;
  let role j =
    match mesh with
    | `U m -> Member.Pe (Mesh_sock.part m ~proc:j)
    | `T (m, handshake_fault) ->
      let fingerprint = if handshake_fault = Some j then Some "0000deadbeef0000" else None in
      Member.Tcp_pe { mesh = m; proc = j; fingerprint }
  in
  let members = ref [] in
  let team () =
    let m = Array.of_list (List.rev !members) in
    {
      procs;
      owner = Unix.getpid ();
      pids = Array.map fst m;
      ctl = Array.map snd m;
      reaped = Array.map (fun _ -> false) m;
      retired = false;
      held = [];
    }
  in
  Fun.protect
    ~finally:(fun () ->
      (* Parent: no link endpoints, rings or listeners. *)
      match mesh with `U m -> Mesh_sock.close_all m | `T (m, _) -> Mesh_tcp.close_parent m)
    (fun () ->
      Trace.span ~cat:"dist" ~args:[ ("procs", string_of_int procs) ] "dist.spawn" (fun () ->
          try
            for j = 0 to procs - 1 do
              members := Member.spawn (role j) :: !members
            done
          with e ->
            retire (team ());
            raise e));
  let t = team () in
  ignore (Trace.span ~cat:"dist" "dist.ready" (fun () -> gather t ~timeout));
  t

(* Send [frame] to every member within [timeout] seconds.  The control
   ends are non-blocking while it ships, so a member that takes no
   request (a stopped one, say) is a stall, not a parent blocked in
   write(2).  A member already gone is found by the gathering: end of
   stream, and its exit status. *)
let ship t ~timeout frame =
  let len = Bytes.length frame in
  let sent = Array.make t.procs 0 in
  let deadline = Clock.now_ns () + int_of_float (timeout *. 1e9) in
  let rec go pending =
    List.iter
      (fun j ->
        match Unix.single_write t.ctl.(j) frame sent.(j) (len - sent.(j)) with
        | n -> sent.(j) <- sent.(j) + n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | exception Unix.Unix_error _ -> sent.(j) <- len)
      pending;
    match List.filter (fun j -> sent.(j) < len) pending with
    | [] -> ()
    | pending ->
      let left = float_of_int (deadline - Clock.now_ns ()) /. 1e9 in
      if left <= 0.0 then fail t (Stalled { timeout; waiting = pending });
      (try ignore (Unix.select [] (List.map (fun j -> t.ctl.(j)) pending) [] left)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go pending
  in
  Array.iter Unix.set_nonblock t.ctl;
  Fun.protect
    ~finally:(fun () -> if not t.retired then Array.iter Unix.clear_nonblock t.ctl)
    (fun () -> go (List.init t.procs Fun.id))

let lower exec ~loop ~program =
  match exec with `Compiled -> Lower.run ~loop ~program () | `Compiled_form l -> l

(* The form a call runs and the request that names it.  A program the
   team holds goes by its key alone: found by [==] on the loop and
   program, else by their fingerprint, and never lowered again.  Any
   other is lowered (unless the caller lowered it already), held, and
   shipped with its key. *)
let prepare t ~exec ~loop ~program =
  let tracing = Trace.is_enabled () in
  let found =
    match List.find_opt (fun h -> h.loop == loop && h.program == program) t.held with
    | Some h -> Ok h
    | None -> (
      let key = fingerprint ~loop ~program in
      match List.find_opt (fun h -> h.key = key) t.held with Some h -> Ok h | None -> Error key)
  in
  match found with
  | Ok h -> (h.form, { Member.key = h.key; form = None; tracing })
  | Error key ->
    let form = lower exec ~loop ~program in
    t.held <- Member.hold { key; loop; program; form } t.held;
    (form, { Member.key; form = Some form; tracing })

let run_once ?(timeout = 5.0) ?sabotage ?(transport = Unix_sockets) ?(exec = `Compiled)
    ~loop ~program () =
  if not (Ast.is_flat loop) then invalid_arg "Runner.run: loop must be flat";
  if List.length (Ast.assignments loop) <> Graph.node_count program.Program.graph then
    invalid_arg "Runner.run: statement/node count mismatch";
  let procs = program.Program.processors in
  (* A warm team this call cannot use retires first. *)
  let usable t =
    t.owner = Unix.getpid () && t.procs = procs
    && match transport with Unix_sockets -> true | Tcp _ -> false
  in
  (match !current with Some t when not (usable t) -> shutdown () | _ -> ());
  let team =
    match (transport, !current) with
    | Unix_sockets, Some t -> t
    | Unix_sockets, None ->
      let t = start ~timeout ~procs (`U (Mesh_sock.create ~procs ())) in
      current := Some t;
      t
    | Tcp { roster; handshake_fault }, _ ->
      (* The handshake binds this loop and program, so a TCP team
         lives for one call. *)
      let mesh = Mesh_tcp.create ?roster ~fingerprint:(fingerprint ~loop ~program) ~procs () in
      start ~timeout ~procs (`T (mesh, handshake_fault))
  in
  let lowered, request = prepare team ~exec ~loop ~program in
  Trace.span ~cat:"dist" "dist.run" @@ fun () ->
  let reports =
    match
      Trace.span ~cat:"dist"
        ~args:[ ("form", if Option.is_none request.form then "held" else "shipped") ]
        "dist.ship" (fun () -> ship team ~timeout (Wire.frame request));
      Option.iter (fun f -> f (Array.copy team.pids)) sabotage;
      Trace.span ~cat:"dist" "dist.collect" (fun () ->
          Array.map
            (function Member.Done ok -> ok | Ready | Failed _ -> assert false)
            (gather team ~timeout))
    with
    | reports ->
      (* A frame left on a link would be read by the next call. *)
      (match transport with
      | Tcp _ -> retire team
      | Unix_sockets ->
        if Array.exists (fun (r : Member.report) -> r.unread > 0) reports then retire team);
      reports
    | exception e ->
      retire team;
      raise e
  in
  (* Merge the members' spans into this process's capture: each
     member's timeline lands on its own track block. *)
  Array.iteri
    (fun j (r : Member.report) ->
      Option.iter (fun c -> Trace.absorb ~tid_offset:((j + 1) * 1000) c) r.trace)
    reports;
  Value_run.finalize ~loop ~program ~computes:(Lower.computes lowered)
    ~results:(Array.map (fun (r : Member.report) -> (r.vals, r.sent, r.wall_ns)) reports)

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
  | Child_error _ as f -> symptom f

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
