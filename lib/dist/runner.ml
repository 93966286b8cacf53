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

type child_ok = {
  vals : float array;
  sent : int;
  wall_ns : float;
  trace : Trace.captured option;
  unread : int;  (* frames the call left on this PE's links (Mesh_sock.settle) *)
}

(* What the parent sends a team member for each call: the key of the
   program to run ({!fingerprint}), the lowered form itself only when
   the member does not hold that key yet, and whether to trace the
   call. *)
type request = { key : string; form : Lower.t option; tracing : bool }

(* What a member sends back: once, that its links are up; then, per
   call, its whole result or the rendering of whatever it died of. *)
type reply = Ready | Done of child_ok | Failed of string

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
   other end of a link; every other failure is the child's own. *)
let own_failure = function
  | Child_error { message; _ } -> not (String.starts_with ~prefix:"link down:" message)
  | Child_exit _ | Stalled _ -> true

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

let forks_counter () =
  Metrics.counter ~help:"PE processes forked to start a socket-run team"
    Metrics.default "mimd_dist_forks_total"

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* ---------------------------------------------------------------- *)
(* The team: p forked PE processes that run call after call            *)

(* A member and the parent each hold the forms of the last [max_held]
   programs, by key, evicting the oldest first.  Both apply the rule to
   the same sequence of requests, so every key the parent sends is one
   the member holds. *)
let max_held = 8

let hold entry held = List.filteri (fun i _ -> i < max_held) (entry :: held)

(* A form the parent holds.  Its key is the {!fingerprint} of the loop
   and program it was lowered from; the loop and program themselves
   are kept so that a caller passing the same values again finds the
   form by [==] without hashing them. *)
type held = { key : string; loop : Ast.loop; program : Program.t; form : Lower.t }

type team = {
  procs : int;
  owner : int;  (* the pid that forked the members: only it may end them *)
  pids : int array;
  ctl : Unix.file_descr array;  (* the parent's end of each member's control socket *)
  reaped : bool array;
  mutable retired : bool;  (* the control ends are closed: the team takes no call *)
  mutable held : held list;  (* newest first *)
}

(* On Unix a file_descr is the descriptor number. *)
let fd_number (fd : Unix.file_descr) : int = Obj.magic fd
let fd_of_number (n : int) : Unix.file_descr = Obj.magic n

(* Child-side, right after fork: stdin, stdout and stderr go to
   /dev/null, and every other inherited descriptor but [keep] closes,
   so a dead peer is EOF and a member that lives for many calls never
   holds another process's pipe or socket open. *)
let close_inherited ~keep =
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  List.iter (fun fd -> Unix.dup2 ~cloexec:false null fd) [ Unix.stdin; Unix.stdout; Unix.stderr ];
  let keep = List.map fd_number keep in
  Array.iter
    (fun name ->
      match int_of_string_opt name with
      | Some n when n > 2 && not (List.mem n keep) -> close_quietly (fd_of_number n)
      | _ -> ())
    (try Sys.readdir "/proc/self/fd" with Sys_error _ -> [||])

(* A member's life: bring its links up, say "ready", then serve
   requests until its control socket reaches end of stream (the team
   retired, or the parent died).  A failed call ends the member: its
   team is retired anyway. *)
let member ~proc ~ctl ~held ~connect =
  let reply r = try Wire.write ctl (r : reply) with _ -> Unix._exit 1 in
  (* The fork copied the parent's trace buffer; drop those events so a
     capture holds only this member's own spans. *)
  Trace.clear ();
  let row =
    match connect () with
    | row -> row
    | exception e ->
      reply (Failed (Printexc.to_string e));
      Unix._exit 1
  in
  reply Ready;
  let rec serve held =
    match (Wire.read ctl : (request, Wire.error) result) with
    | Error _ -> Unix._exit 0
    | Ok { key; form; tracing } ->
      let held = match form with Some l -> hold (key, l) held | None -> held in
      if tracing then begin
        Trace.enable ();
        Trace.clear ()
      end
      else Trace.disable ();
      let t0 = Clock.now_ns () in
      (* Settling is part of the call: a peer that dies while this
         member waits for its end marker is a "link down:" report, a
         symptom, like a death seen during the worker. *)
      let outcome =
        match
          let vals, sent =
            Mimd_runtime.Exec_compiled.worker ~lowered:(List.assoc key held) ~proc
              ~chans:(Mesh_sock.row_chans row) ()
          in
          let wall_ns = float_of_int (Clock.now_ns () - t0) in
          (vals, sent, wall_ns, Mesh_sock.settle row)
        with
        | vals, sent, wall_ns, unread ->
          let trace = if tracing then Some (Trace.capture ()) else None in
          Trace.clear ();
          Done { vals; sent; wall_ns; trace; unread }
        | exception e -> Failed (Printexc.to_string e)
      in
      reply outcome;
      (match outcome with Done _ -> serve held | Ready | Failed _ -> Unix._exit 1)
  in
  serve held

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

(* One reply from every member, by select across the control sockets;
   [timeout] seconds with no reply anywhere is the distributed
   analogue of the watchdog's stall.  A failure does not end the
   gathering: a member's death reaches its peers as "link down:", so
   the first failure to arrive is often the symptom, not the cause.
   Once one member has failed, the others get up to [timeout] more
   seconds to reply or exit, and the team is retired with the failure
   of the lowest-numbered PE whose failure is its own
   ({!own_failure}).  The deadline is on the monotonic clock, so a
   wall-clock step cannot stretch or cut the stall bound. *)
let gather t ~timeout =
  let procs = t.procs in
  let replies = Array.make procs None and failures = Array.make procs None in
  let unsettled () =
    List.filter
      (fun j -> Option.is_none replies.(j) && Option.is_none failures.(j))
      (List.init procs Fun.id)
  in
  let settle fd =
    let j =
      let rec find i = if t.ctl.(i) == fd then i else find (i + 1) in
      find 0
    in
    match (Wire.read fd : (reply, Wire.error) result) with
    | Ok (Failed message) -> failures.(j) <- Some (Child_error { proc = j; message })
    | Ok r -> replies.(j) <- Some r
    | Error _ ->
      let status =
        match reap t j with Some st -> status_string st | None -> "already reaped"
      in
      failures.(j) <- Some (Child_exit { proc = j; status })
  in
  let timeout_ns = int_of_float (timeout *. 1e9) in
  let rec collect deadline =
    match unsettled () with
    | [] -> ()
    | pending -> (
      let wait =
        match deadline with
        | None -> timeout
        | Some d -> Float.max 0.0 (float_of_int (d - Clock.now_ns ()) /. 1e9)
      in
      match Unix.select (List.map (fun j -> t.ctl.(j)) pending) [] [] wait with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> collect deadline
      | [], _, _ ->
        if deadline = None then fail t (Stalled { timeout; waiting = pending })
      | ready, _, _ ->
        List.iter settle ready;
        collect
          (match deadline with
          | None when Array.exists Option.is_some failures ->
            Some (Clock.now_ns () + timeout_ns)
          | d -> d))
  in
  collect None;
  (let failed = List.filter_map Fun.id (Array.to_list failures) in
   match List.filter own_failure failed @ failed with
   | f :: _ -> fail t f
   | [] -> ());
  Array.map Option.get replies

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

(* Fork the members, one per processor, each with its row of [mesh]
   (over Unix sockets: its socketpairs and the shared mapping of the
   mesh's rings, which this process unmaps right after the forks) and
   its control socket, and return once every member has said its
   links are up.  The members inherit [first], the program of the call
   that starts the team: the fork copies it for free, so only later
   programs are shipped.  Forking MUST happen before this process ever
   spawns a domain: OCaml 5 forbids Unix.fork once any domain was
   created (even a joined one).  A live team needs no fork. *)
let start ~timeout ~procs ~first mesh =
  Lazy.force exit_hook;
  let ctl =
    Array.init procs (fun _ -> Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0)
  in
  let t =
    {
      procs;
      owner = Unix.getpid ();
      pids = Array.make procs (-1);
      ctl = Array.map fst ctl;
      reaped = Array.make procs true;
      retired = false;
      held = [ first ];
    }
  in
  let child j =
    let ctl = snd ctl.(j) in
    match mesh with
    | `U m ->
      let link peer = Mesh_sock.link m ~proc:j ~peer in
      close_inherited
        ~keep:(ctl :: List.filter_map (fun peer -> if peer = j then None else Some (link peer))
                        (List.init procs Fun.id));
      member ~proc:j ~ctl ~held:[ (first.key, first.form) ] ~connect:(fun () ->
          Mesh_sock.ring_row m ~proc:j)
    | `T (m, handshake_fault) ->
      close_inherited ~keep:[ ctl; Mesh_tcp.listener m ~proc:j ];
      (* The whole connection row is up and handshaken before "ready",
         so a call's request marks the start of execution, not of
         connection set-up, and a handshake mismatch fails the start
         before any peer computes a value. *)
      let fingerprint = if handshake_fault = Some j then Some "0000deadbeef0000" else None in
      member ~proc:j ~ctl ~held:[ (first.key, first.form) ] ~connect:(fun () ->
          let c = Mesh_tcp.connect_all ?fingerprint m ~proc:j in
          Mesh_sock.row ~procs ~proc:j ~link:(fun peer -> Mesh_tcp.link c ~peer))
  in
  Fun.protect
    ~finally:(fun () ->
      (* Parent: no link endpoints, rings or listeners, no member-side
         control endpoints.  The rings are unmapped before this process
         touches a page of them. *)
      (match mesh with `U m -> Mesh_sock.close_all m | `T (m, _) -> Mesh_tcp.close_parent m);
      Array.iter (fun (_, c) -> close_quietly c) ctl)
    (fun () ->
      Trace.span ~cat:"dist" ~args:[ ("procs", string_of_int procs) ] "dist.spawn" (fun () ->
          try
            for j = 0 to procs - 1 do
              match Unix.fork () with
              | 0 ->
                (* Nothing may unwind into the parent's code here. *)
                (try child j with _ -> ());
                Unix._exit 1
              | pid ->
                Metrics.inc (forks_counter ());
                t.pids.(j) <- pid;
                t.reaped.(j) <- false
            done
          with e ->
            retire t;
            raise e));
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
  | Ok h -> (h.form, { key = h.key; form = None; tracing })
  | Error key ->
    let form = lower exec ~loop ~program in
    t.held <- hold { key; loop; program; form } t.held;
    (form, { key; form = Some form; tracing })

let run_once ?(timeout = 5.0) ?sabotage ?(transport = Unix_sockets) ?(exec = `Compiled)
    ~loop ~program () =
  if not (Ast.is_flat loop) then invalid_arg "Runner.run: loop must be flat";
  if List.length (Ast.assignments loop) <> Graph.node_count program.Program.graph then
    invalid_arg "Runner.run: statement/node count mismatch";
  let procs = program.Program.processors in
  (* A warm team this call cannot use retires before anything else:
     while its members live, every page this process writes is copied
     on write, and lowering horner took 3.7 ms with the last team alive
     against 1.0 ms without. *)
  let usable t =
    t.owner = Unix.getpid () && t.procs = procs
    && match transport with Unix_sockets -> true | Tcp _ -> false
  in
  (match !current with Some t when not (usable t) -> shutdown () | _ -> ());
  (* A member that died mid-frame must cost an EPIPE, not a fatal
     SIGPIPE in the supervisor. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let team =
    match (transport, !current) with
    | Unix_sockets, Some t -> t
    | Unix_sockets, None ->
      let first = { key = fingerprint ~loop ~program; loop; program; form = lower exec ~loop ~program } in
      let t = start ~timeout ~procs ~first (`U (Mesh_sock.create ~procs ())) in
      current := Some t;
      t
    | Tcp { roster; handshake_fault }, _ ->
      (* The handshake binds this loop and program, so a TCP team
         lives for one call. *)
      let key = fingerprint ~loop ~program in
      let mesh = Mesh_tcp.create ?roster ~fingerprint:key ~procs () in
      let first = { key; loop; program; form = lower exec ~loop ~program } in
      start ~timeout ~procs ~first (`T (mesh, handshake_fault))
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
          Array.map (function Done ok -> ok | Ready | Failed _ -> assert false) (gather team ~timeout))
    with
    | reports ->
      (* A frame left on a link would be read by the next call. *)
      (match transport with
      | Tcp _ -> retire team
      | Unix_sockets -> if Array.exists (fun r -> r.unread > 0) reports then retire team);
      reports
    | exception e ->
      retire team;
      raise e
  in
  (* Merge the members' spans into this process's capture: each
     member's timeline lands on its own track block. *)
  Array.iteri
    (fun j r -> Option.iter (fun c -> Trace.absorb ~tid_offset:((j + 1) * 1000) c) r.trace)
    reports;
  Value_run.finalize ~loop ~program ~computes:(Lower.computes lowered)
    ~results:(Array.map (fun r -> (r.vals, r.sent, r.wall_ns)) reports)

(* Respawn supervision for a one-shot run.  A run is a deterministic
   pure function of (loop, program, inputs), and a crashed or stalled
   PE takes its peers' channel state with it — so the sound respawn
   unit is the {e whole run}, re-forked from scratch (every failure
   path above already SIGKILLed and reaped the previous attempt).
   Mid-run single-PE resurrection would need checkpointed channel
   state; the router's fleet (stateless workers) is where per-worker
   respawn is sound — see {!Router}.  Child_error is not retried: it
   is the child's own exception (a handshake mismatch, a codegen bug)
   and will recur deterministically.

   Which failures may a respawn retry?  Crashes and stalls are
   environmental.  So is a "link down:" child error — its root cause
   is a peer's death, reported when no PE failed on its own account.
   Every other Child_error is the child's own deterministic exception
   (a handshake mismatch, a codegen bug) and recurs on retry. *)
let retryable = function
  | Child_exit _ | Stalled _ -> true
  | Child_error _ as f -> not (own_failure f)

let run ?timeout ?sabotage ?transport ?exec ?(respawn = 0) ~loop ~program () =
  let rec attempt remaining =
    match
      run_once ?timeout ?sabotage ?transport ?exec ~loop ~program ()
    with
    | outcome -> outcome
    | exception Dist_error f when retryable f && remaining > 0 ->
      Metrics.inc (respawns_counter ());
      Trace.instant
        ~args:[ ("failure", describe f); ("remaining", string_of_int (remaining - 1)) ]
        "dist.respawn";
      attempt (remaining - 1)
  in
  attempt (max 0 respawn)
