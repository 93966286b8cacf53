module Trace = Mimd_obs.Trace
module Clock = Mimd_obs.Clock
module Metrics = Mimd_obs.Metrics
module Wire = Mimd_runtime.Wire
module Mesh_sock = Mimd_runtime.Mesh_sock
module Value_run = Mimd_runtime.Value_run
module Exec_compiled = Mimd_runtime.Exec_compiled
module Team = Mimd_runtime.Team

type role =
  | Pe of Mesh_sock.part
  | Tcp_pe of { mesh : Mesh_tcp.t; proc : int; fingerprint : string option }
  | Echo of Mesh_sock.part
  | Cycle_timer
  | Serve_worker of {
      listener : Unix.file_descr;
      path : string;
      jobs : int;
      queue_depth : int;
      cache_dir : string option;
      validate : bool;
      trace : string option;
    }

(* On Unix a file_descr is the descriptor number. *)
let fd_number (fd : Unix.file_descr) : int = Obj.magic fd
let fd_of_number (n : int) : Unix.file_descr = Obj.magic n

(* What a member inherits besides its control socket, under the same
   numbers. *)
let inherited = function
  | Pe part | Echo part -> part.rings :: List.filter_map Fun.id (Array.to_list part.links)
  | Tcp_pe { mesh; proc; _ } -> [ Mesh_tcp.listener mesh ~proc ]
  | Serve_worker { listener; _ } -> [ listener ]
  | Cycle_timer -> []

let marker = "--mimd-member"

let null = lazy (Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0)

(* A member that dies before it reads its start frame shows as end of
   stream on [ctl] to whoever reads there next. *)
let spawn role =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let ctl, theirs = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let own = theirs :: inherited role in
  match
    Fun.protect
      ~finally:(fun () ->
        List.iter Unix.set_close_on_exec own;
        Unix.close theirs)
      (fun () ->
        let null = Lazy.force null in
        List.iter Unix.clear_close_on_exec own;
        Unix.create_process "/proc/self/exe"
          [| Sys.executable_name; marker; string_of_int (fd_number theirs) |]
          null null null)
  with
  | pid ->
    Metrics.inc
      (Metrics.counter ~help:"Member processes spawned: team PEs, probe peers, route workers"
         Metrics.default "mimd_dist_spawns_total");
    (try Wire.write ctl role with Unix.Unix_error _ -> ());
    (pid, ctl)
  | exception e ->
    Unix.close ctl;
    raise e

(* ---------------------------------------------------------------- *)
(* The member's side                                                  *)

(* Every inherited descriptor but [keep] and the standard three closes,
   so a dead peer is EOF and a long-lived member never holds another
   process's pipe or socket open. *)
let close_inherited ~keep =
  let keep = List.map fd_number keep in
  Array.iter
    (fun name ->
      match int_of_string_opt name with
      | Some n when n > 2 && not (List.mem n keep) -> (
        try Unix.close (fd_of_number n) with Unix.Unix_error _ -> ())
      | _ -> ())
    (try Sys.readdir "/proc/self/fd" with Sys_error _ -> [||])

(* The link probe's peer, on the link a team member runs, so the
   measured cost is what a run's messages cost. *)
let rec echo link =
  match Mesh_sock.Link.pull link with
  | Ok ((node, iter), v) ->
    Mesh_sock.Link.send link ~node ~iter v;
    echo link
  | Error _ -> ()

(* One "cycle" of the paper's machine model is one unit of node
   latency.  The evaluator that runs is the lowered one, so time it:
   ewf on one PE at n = 1000, through {!Exec_compiled.worker} on the
   calling thread (no domain), and divide by the schedule's makespan
   in cycles.  The median of five runs, after one that warms the
   caches. *)
let time_cycle_ns () =
  let iterations = 1000 in
  let { Mimd_loop_ir.Depend.loop; graph; _ } =
    Mimd_loop_ir.Depend.analyze_string Mimd_workloads.Elliptic.source
  in
  let machine = Mimd_machine.Config.make ~processors:1 ~comm_estimate:2 in
  let schedule = Mimd_core.Cyclic_sched.schedule_iterations ~graph ~machine ~iterations () in
  let program = Mimd_codegen.From_schedule.run schedule in
  let lowered = Mimd_runtime.Lower.run ~loop ~program () in
  let alone _ = invalid_arg "Linkprobe.calibrate_cycle_ns: a one-PE run sent a message" in
  let chans =
    {
      Value_run.send = (fun ~dst ~node:_ ~iter:_ _ -> alone dst);
      recv = (fun ~src ~node:_ ~iter:_ -> alone src);
    }
  in
  let run () =
    let t0 = Clock.now_ns () in
    ignore (Sys.opaque_identity (Exec_compiled.worker ~lowered ~proc:0 ~chans ()));
    float_of_int (Clock.now_ns () - t0)
  in
  ignore (run ());
  let times = List.sort compare (List.init 5 (fun _ -> run ())) in
  List.nth times 2 /. float_of_int (Mimd_core.Schedule.makespan schedule)

let main ctl =
  match (Wire.read ctl : (role, Wire.error) result) with
  | Error _ -> ()
  | Ok role -> (
    close_inherited ~keep:(ctl :: inherited role);
    let pe ~proc = Team.serve ctl ~proc ~traces:true ~worker:(Exec_compiled.worker ?init:None) in
    match role with
    | Pe part ->
      pe ~proc:part.proc (fun () -> Mesh_sock.ring_row (Mesh_sock.attach part) ~proc:part.proc)
    | Tcp_pe { mesh; proc; fingerprint } ->
      (* The whole connection row is up and handshaken before "ready",
         so a call's request marks the start of execution, not of
         connection set-up, and a handshake mismatch fails the start
         before any peer computes a value. *)
      pe ~proc (fun () ->
          let c = Mesh_tcp.connect_all ?fingerprint mesh ~proc in
          Mesh_sock.row ~procs:(Mesh_tcp.procs mesh) ~proc ~link:(fun peer -> Mesh_tcp.link c ~peer))
    | Echo part -> echo (Mesh_sock.ring_link (Mesh_sock.attach part) ~proc:part.proc ~peer:0)
    | Cycle_timer -> Wire.write ctl (time_cycle_ns ())
    | Serve_worker { listener; path; jobs; queue_depth; cache_dir; validate; trace } ->
      (* The ordinary serve stack on the listener its router bound. *)
      Option.iter
        (fun path ->
          Trace.enable ();
          Trace.set_sink ~threshold:256 path)
        trace;
      let server = Mimd_server.Server.make ?cache_dir ~validate ~jobs ~queue_depth () in
      let code = Mimd_server.Server.serve_socket ~listener server ~path in
      Mimd_server.Server.shutdown server;
      Trace.close_sink ();
      Unix._exit code)

(* A member runs here, before the executable's own code. *)
let () =
  match Sys.argv with
  | [| _; m; fd |] when m = marker ->
    (try main (fd_of_number (int_of_string fd)) with _ -> Unix._exit 1);
    Unix._exit 0
  | _ -> ()
