module Program = Mimd_codegen.Program
module Graph = Mimd_ddg.Graph
module Ast = Mimd_loop_ir.Ast
module Value_run = Mimd_runtime.Value_run
module Trace = Mimd_obs.Trace
module Clock = Mimd_obs.Clock
module Metrics = Mimd_obs.Metrics

type child_ok = {
  vals : float array;
  sent : int;
  wall_ns : float;
  trace : Trace.captured option;
}

(* What travels over a child's control socket: its whole result, or
   the rendering of whatever it died of. *)
type report = (child_ok, string) result

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

(* Fork one process per scheduled processor.  MUST run before this
   process ever spawns a domain: OCaml 5 forbids Unix.fork once any
   domain was created (even a joined one), which is why run-dist does
   its socket run before any in-domain comparison and why the dist
   test suite runs first. *)
let run_once ?(timeout = 5.0) ?sabotage ?(transport = Unix_sockets) ?(exec = `Compiled)
    ~loop ~program () =
  if not (Ast.is_flat loop) then invalid_arg "Runner.run: loop must be flat";
  if List.length (Ast.assignments loop) <> Graph.node_count program.Program.graph then
    invalid_arg "Runner.run: statement/node count mismatch";
  (* Lower once in the parent; the fork hands every child the shared
     immutable compiled form for free. *)
  let lowered =
    match exec with
    | `Compiled -> Mimd_runtime.Lower.run ~loop ~program ()
    | `Compiled_form l -> l
  in
  (* A child that died mid-frame must cost an EPIPE, not a fatal
     SIGPIPE in the supervisor. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let procs = program.Program.processors in
  let mesh =
    match transport with
    | Unix_sockets -> `U (Mesh_sock.create ~procs ())
    | Tcp { roster; handshake_fault } ->
      `T
        ( Mesh_tcp.create ?roster ~fingerprint:(fingerprint ~loop ~program) ~procs (),
          handshake_fault )
  in
  (* One control socketpair per child, all created before the first
     fork so each child can close every endpoint that is not its own. *)
  let ctl = Array.init procs (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0) in
  let parent_end j = fst ctl.(j) and child_end j = snd ctl.(j) in
  let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let child j =
    (* Keep: our mesh row (or listener) and our control endpoint.
       Everything else inherited from the parent closes now, so a dead
       peer is EOF. *)
    (match mesh with
    | `U m -> Mesh_sock.retain_only m ~proc:j
    | `T (m, _) -> Mesh_tcp.retain_only m ~proc:j);
    for i = 0 to procs - 1 do
      close_quietly (parent_end i);
      if i <> j then close_quietly (child_end i)
    done;
    let fd = child_end j in
    (* The fork copied the parent's trace buffer; drop those events so
       a capture holds only this child's own spans. *)
    if Trace.is_enabled () then Trace.clear ();
    (* TCP only: establish and handshake the whole connection row
       before the rendezvous, so the parent's "go" still marks the
       start of execution (not connection setup) and a handshake
       mismatch fails the run before any peer computes a value. *)
    let conns =
      match mesh with
      | `U m -> Ok (`U m)
      | `T (m, handshake_fault) -> (
        let fingerprint =
          if handshake_fault = Some j then Some "0000deadbeef0000" else None
        in
        match Mesh_tcp.connect_all ?fingerprint m ~proc:j with
        | c -> Ok (`T c)
        | exception e -> Error (Printexc.to_string e))
    in
    match conns with
    | Error message ->
      (try Wire.write fd (Error message : report) with _ -> ());
      Unix._exit 1
    | Ok conns ->
      (* Rendezvous: all children start on the parent's "go", so wall
         clocks measure execution, not staggered spawn. *)
      let b = Bytes.create 1 in
      (match Unix.read fd b 0 1 with
      | 0 -> Unix._exit 2 (* parent vanished before the go *)
      | _ -> ()
      | exception Unix.Unix_error _ -> Unix._exit 2);
      let t0 = Clock.now_ns () in
      let outcome : report =
        match
          let chans =
            match conns with
            | `U m -> Mesh_sock.chans m ~proc:j
            | `T c -> Mesh_tcp.chans c
          in
          Mimd_runtime.Exec_compiled.worker ~lowered ~proc:j ~chans ()
        with
        | vals, sent ->
          Ok
            {
              vals;
              sent;
              wall_ns = float_of_int (Clock.now_ns () - t0);
              trace = (if Trace.is_enabled () then Some (Trace.capture ()) else None);
            }
        | exception e -> Error (Printexc.to_string e)
      in
      (try Wire.write fd outcome with _ -> ());
      Unix._exit (match outcome with Ok _ -> 0 | Error _ -> 1)
  in
  let pids = Array.make procs (-1) in
  Trace.span ~cat:"dist" ~args:[ ("procs", string_of_int procs) ] "dist.spawn" (fun () ->
      for j = 0 to procs - 1 do
        match Unix.fork () with 0 -> child j | pid -> pids.(j) <- pid
      done);
  (* Parent: no link endpoints or listeners, no child-side control
     endpoints. *)
  (match mesh with
  | `U m -> Mesh_sock.close_all m
  | `T (m, _) -> Mesh_tcp.close_parent m);
  Array.iteri (fun j _ -> close_quietly (child_end j)) ctl;
  let reaped = Array.make procs false in
  let reap_status j =
    if not reaped.(j) then begin
      reaped.(j) <- true;
      Trace.span ~cat:"dist" ~args:[ ("proc", string_of_int j) ] "dist.reap" (fun () ->
          match Unix.waitpid [] pids.(j) with
          | _, status -> Some status
          | exception Unix.Unix_error _ -> None)
    end
    else None
  in
  let fail failure =
    Array.iteri
      (fun j pid ->
        if not reaped.(j) then begin
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (reap_status j)
        end)
      pids;
    Array.iteri (fun j _ -> close_quietly (parent_end j)) ctl;
    raise (Dist_error failure)
  in
  (* Go. *)
  let go = Bytes.of_string "g" in
  Array.iteri
    (fun j _ ->
      match Unix.write (parent_end j) go 0 1 with
      | _ -> ()
      | exception Unix.Unix_error _ ->
        (* The child is already gone; the collect loop will see EOF
           and report its exit status. *)
        ())
    ctl;
  (match sabotage with None -> () | Some f -> f (Array.copy pids));
  (* Collect: select across the control sockets; [timeout] seconds
     with no report anywhere is the distributed analogue of the
     watchdog's stall.  A failure does not end the collection: a
     child's death reaches its peers as "link down:", so the first
     report to arrive is often the symptom, not the cause.  Once one
     child has failed, the others get up to [timeout] more seconds to
     report or exit, and the run fails with the lowest-numbered PE
     whose failure is its own ({!own_failure}). *)
  let reports : child_ok option array = Array.make procs None in
  let failures : failure option array = Array.make procs None in
  let unsettled () =
    List.filter (fun j -> reports.(j) = None && failures.(j) = None) (List.init procs Fun.id)
  in
  let settle fd =
    let j =
      let rec find i = if parent_end i == fd then i else find (i + 1) in
      find 0
    in
    match (Wire.read fd : (report, Wire.error) result) with
    | Ok (Ok ok) ->
      reports.(j) <- Some ok;
      ignore (reap_status j)
    | Ok (Error message) -> failures.(j) <- Some (Child_error { proc = j; message })
    | Error _ ->
      let status =
        match reap_status j with Some st -> status_string st | None -> "already reaped"
      in
      failures.(j) <- Some (Child_exit { proc = j; status })
  in
  let rec collect deadline =
    match unsettled () with
    | [] -> ()
    | pending -> (
      let wait =
        match deadline with
        | None -> timeout
        | Some d -> Float.max 0.0 (d -. Unix.gettimeofday ())
      in
      match Unix.select (List.map parent_end pending) [] [] wait with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> collect deadline
      | [], _, _ ->
        if deadline = None then fail (Stalled { timeout; waiting = pending })
      | ready, _, _ ->
        List.iter settle ready;
        collect
          (match deadline with
          | None when Array.exists Option.is_some failures ->
            Some (Unix.gettimeofday () +. timeout)
          | d -> d))
  in
  Trace.span ~cat:"dist" "dist.join" (fun () -> collect None);
  (let failed = List.filter_map Fun.id (Array.to_list failures) in
   match List.filter own_failure failed @ failed with
   | f :: _ -> fail f
   | [] -> ());
  Array.iteri (fun j _ -> close_quietly (parent_end j)) ctl;
  Array.iteri (fun j _ -> ignore (reap_status j)) pids;
  let results =
    Array.init procs (fun j ->
        match reports.(j) with
        | Some r -> (r.vals, r.sent, r.wall_ns)
        | None -> assert false)
  in
  (* Merge the children's spans into this process's capture: each
     child's timeline lands on its own track block. *)
  Array.iteri
    (fun j r ->
      match r with
      | Some { trace = Some c; _ } -> Trace.absorb ~tid_offset:((j + 1) * 1000) c
      | _ -> ())
    reports;
  Value_run.finalize ~loop ~program ~computes:(Mimd_runtime.Lower.computes lowered)
    ~results

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
