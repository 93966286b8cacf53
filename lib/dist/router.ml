module Core = Router_core
module Server = Mimd_server.Server
module Trace = Mimd_obs.Trace

type config = {
  workers : int;
  socket : string;
  worker_dir : string;
  max_inflight : int;
  jobs : int option;  (** per-worker pool domains; [None] = auto *)
  queue_depth : int;
  cache_dir : string option;  (** shared disk-cache dir; [None] = off *)
  validate : bool;
  trace : string option;  (** streaming-sink base path *)
  respawn : int;  (** per-worker respawn budget; 0 = no supervision *)
}

let shard_key = Core.shard_key
let worker_path cfg idx = Filename.concat cfg.worker_dir (Printf.sprintf "worker-%d.sock" idx)

(* A client stops being read once this much of its output is unsent:
   a reader that falls behind throttles itself, never the fleet. *)
let max_backlog = 256 * 1024

(* ---------------------------------------------------------------- *)
(* Line-framed, non-blocking connections                              *)

type conn = {
  fd : Unix.file_descr;
  inbuf : Buffer.t;  (** the unterminated tail of the input *)
  out : string Queue.t;  (** unsent output, one frame per entry *)
  mutable off : int;  (** bytes of the head frame already sent *)
  mutable backlog : int;  (** unsent bytes *)
}

let conn fd =
  Unix.set_nonblock fd;
  { fd; inbuf = Buffer.create 256; out = Queue.create (); off = 0; backlog = 0 }

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()
let chunk = Bytes.create 65536

(* The complete lines one read brings, and whether the peer is gone. *)
let read_lines c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ([], false)
  | exception Unix.Unix_error _ -> ([], true)
  | 0 -> ([], true)
  | n ->
    let lines = ref [] and start = ref 0 in
    for i = 0 to n - 1 do
      if Bytes.get chunk i = '\n' then begin
        Buffer.add_subbytes c.inbuf chunk !start (i - !start);
        lines := Buffer.contents c.inbuf :: !lines;
        Buffer.clear c.inbuf;
        start := i + 1
      end
    done;
    Buffer.add_subbytes c.inbuf chunk !start (n - !start);
    (List.rev !lines, false)

(* Write what the socket takes now; [false] once the peer is gone. *)
let rec flush_out c =
  match Queue.peek_opt c.out with
  | None -> true
  | Some s -> (
    let len = String.length s - c.off in
    match Unix.single_write_substring c.fd s c.off len with
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> true
    | exception Unix.Unix_error _ -> false
    | n ->
      c.backlog <- c.backlog - n;
      if n = len then begin
        ignore (Queue.pop c.out);
        c.off <- 0;
        flush_out c
      end
      else begin
        c.off <- c.off + n;
        true
      end)

let send c line =
  let s = line ^ "\n" in
  Queue.push s c.out;
  c.backlog <- c.backlog + String.length s;
  flush_out c

(* ---------------------------------------------------------------- *)
(* The shell: one select loop feeding the pure core                   *)

type peer = Listener | Client of int | Worker of int

type t = {
  cfg : config;
  mutable core : Core.state;
  queue : Core.event Queue.t;
  clients : (int, conn) Hashtbl.t;
  workers : conn option array;
  peers : (Unix.file_descr, peer) Hashtbl.t;
  mutable next_client : int;
  mutable children : int list;  (** spawned and not yet reaped *)
  mutable stop_by : float option;  (** set by [Stop]: the flush deadline *)
}

let worker_jobs cfg = match cfg.jobs with Some j -> j | None -> Server.default_jobs ~cap:4

let reap_exited t =
  t.children <-
    List.filter
      (fun pid ->
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> true
        | _ | (exception Unix.Unix_error _) -> false)
      t.children

let drop_client t id c =
  close_noerr c.fd;
  Hashtbl.remove t.clients id;
  Hashtbl.remove t.peers c.fd;
  Queue.push (Core.Client_closed { client = id }) t.queue

let drop_worker t slot c =
  close_noerr c.fd;
  t.workers.(slot) <- None;
  Hashtbl.remove t.peers c.fd;
  reap_exited t;
  Queue.push (Core.Worker_closed { slot }) t.queue

(* Bind the slot's socket, dial it (the backlog takes the connection
   before anyone accepts), spawn the worker on that listener, and send
   the boot ping whose answer marks the slot live. *)
let spawn t slot =
  let path = worker_path t.cfg slot in
  let started =
    let listener = Server.listen_unix path in
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let worker =
      Member.Serve_worker
        {
          listener;
          path;
          jobs = worker_jobs t.cfg;
          queue_depth = t.cfg.queue_depth;
          cache_dir = t.cfg.cache_dir;
          validate = t.cfg.validate;
          trace = Option.map (fun base -> Printf.sprintf "%s.worker%d" base slot) t.cfg.trace;
        }
    in
    match
      Unix.set_close_on_exec listener;
      Unix.connect fd (Unix.ADDR_UNIX path);
      Member.spawn worker
    with
    | exception e ->
      close_noerr fd;
      close_noerr listener;
      raise e
    | pid, ctl ->
      close_noerr ctl;
      close_noerr listener;
      (fd, pid)
  in
  match started with
  | exception Unix.Unix_error (e, fn, _) ->
    Queue.push
      (Core.Spawn_failed { slot; reason = Printf.sprintf "%s: %s" fn (Unix.error_message e) })
      t.queue
  | fd, pid ->
    let c = conn fd in
    t.workers.(slot) <- Some c;
    Hashtbl.replace t.peers fd (Worker slot);
    t.children <- pid :: t.children;
    ignore (send c Core.boot_line);
    Queue.push (Core.Spawned { slot; pid }) t.queue

(* A failed write is followed by EOF on the read side, which is where
   the core learns of the death. *)
let to_worker t slot line =
  match t.workers.(slot) with Some c -> ignore (send c line) | None -> ()

let perform t = function
  | Core.Reply { client; line } -> (
    match Hashtbl.find_opt t.clients client with
    | Some c -> if not (send c line) then drop_client t client c
    | None -> ())
  | Core.Forward { slot; line } -> to_worker t slot line
  | Core.Retire { slot } -> to_worker t slot Core.retire_line
  | Core.Spawn { slot } ->
    if Core.boot_status t.core = `Up then
      Trace.instant ~args:[ ("worker", string_of_int slot) ] "route.respawn";
    spawn t slot
  | Core.Stop ->
    t.stop_by <- Some (Unix.gettimeofday () +. 2.0);
    Hashtbl.filter_map_inplace
      (fun fd peer -> if peer = Listener then (close_noerr fd; None) else Some peer)
      t.peers;
    (try Unix.unlink t.cfg.socket with Unix.Unix_error _ -> ())

let run_events t =
  while not (Queue.is_empty t.queue) do
    let ev = Queue.pop t.queue in
    let feed () =
      let core, actions = Core.step t.core ~now:(Unix.gettimeofday ()) ev in
      t.core <- core;
      List.iter (perform t) actions
    in
    match ev with
    | Core.Client_line _ -> Trace.span ~cat:"route" "route.request" feed
    | _ -> feed ()
  done

let rec accept_all t lfd =
  match Unix.accept lfd with
  | exception Unix.Unix_error _ -> ()
  | fd, _ ->
    let id = t.next_client in
    t.next_client <- id + 1;
    Hashtbl.replace t.clients id (conn fd);
    Hashtbl.replace t.peers fd (Client id);
    accept_all t lfd

let on_readable t fd =
  match Hashtbl.find_opt t.peers fd with
  | Some Listener -> accept_all t fd
  | Some (Client id) ->
    let c = Hashtbl.find t.clients id in
    let lines, eof = read_lines c in
    List.iter (fun line -> Queue.push (Core.Client_line { client = id; line }) t.queue) lines;
    if eof then drop_client t id c
  | Some (Worker slot) -> (
    match t.workers.(slot) with
    | None -> ()
    | Some c ->
      let lines, eof = read_lines c in
      List.iter (fun line -> Queue.push (Core.Worker_line { slot; line }) t.queue) lines;
      if eof then drop_worker t slot c)
  | None -> ()

let on_writable t fd =
  match Hashtbl.find_opt t.peers fd with
  | Some (Client id) ->
    let c = Hashtbl.find t.clients id in
    if not (flush_out c) then drop_client t id c
  | Some (Worker slot) -> Option.iter (fun c -> ignore (flush_out c)) t.workers.(slot)
  | Some Listener | None -> ()

(* One select round: write whoever can take it, read whoever is ready
   and run what that produced through the core.  An idle round reaps
   workers that exited after their EOF was seen. *)
let pump t =
  let reading = ref [] and writing = ref [] in
  Hashtbl.iter
    (fun fd peer ->
      match peer with
      | Listener -> reading := fd :: !reading
      | Client id ->
        let c = Hashtbl.find t.clients id in
        if t.stop_by = None && c.backlog < max_backlog then reading := fd :: !reading;
        if c.backlog > 0 then writing := fd :: !writing
      | Worker slot -> (
        reading := fd :: !reading;
        match t.workers.(slot) with
        | Some c when c.backlog > 0 -> writing := fd :: !writing
        | _ -> ()))
    t.peers;
  match Unix.select !reading !writing [] 0.5 with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | [], [], _ -> reap_exited t
  | readable, writable, _ ->
    List.iter (on_writable t) writable;
    run_events t;
    List.iter
      (fun fd ->
        on_readable t fd;
        run_events t)
      readable

(* Stopped and flushed: every worker gone and every reply written, or
   the deadline passed. *)
let finished t =
  match t.stop_by with
  | None -> false
  | Some deadline ->
    Unix.gettimeofday () > deadline
    || Array.for_all Option.is_none t.workers
       && Hashtbl.fold (fun _ c ok -> ok && c.backlog = 0) t.clients true

(* Close everything; give the children the rest of [grace] to exit,
   then kill and reap them. *)
let teardown t ~grace =
  Hashtbl.iter (fun fd _ -> close_noerr fd) t.peers;
  Hashtbl.reset t.peers;
  let deadline = Unix.gettimeofday () +. grace in
  while t.children <> [] && Unix.gettimeofday () < deadline do
    reap_exited t;
    if t.children <> [] then Unix.sleepf 0.02
  done;
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    t.children;
  t.children <- [];
  for i = 0 to t.cfg.workers - 1 do
    try Unix.unlink (worker_path t.cfg i) with Unix.Unix_error _ -> ()
  done;
  Trace.close_sink ()

let serve cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  Mimd_util.Fs.mkdir_p cfg.worker_dir;
  (match cfg.trace with None -> () | Some base -> Trace.set_sink ~threshold:256 base);
  let core, spawns =
    Core.create
      {
        Core.workers = cfg.workers;
        max_inflight = cfg.max_inflight;
        respawn = cfg.respawn;
        paths = Array.init cfg.workers (worker_path cfg);
      }
  in
  let t =
    {
      cfg;
      core;
      queue = Queue.create ();
      clients = Hashtbl.create 16;
      workers = Array.make cfg.workers None;
      peers = Hashtbl.create 16;
      next_client = 0;
      children = [];
      stop_by = None;
    }
  in
  List.iter (perform t) spawns;
  run_events t;
  (* Boot: the router's socket appears only once every worker has
     answered its boot ping. *)
  let boot_deadline = Unix.gettimeofday () +. 15.0 in
  let rec boot () =
    match Core.boot_status t.core with
    | `Up -> Ok ()
    | `Failed msg -> Error msg
    | `Booting when Unix.gettimeofday () > boot_deadline ->
      Error "the fleet did not answer its boot pings within 15 s"
    | `Booting ->
      pump t;
      boot ()
  in
  match boot () with
  | Error msg ->
    teardown t ~grace:0.0;
    prerr_endline ("mimdloop: route: " ^ msg);
    1
  | Ok () ->
    let lfd = Server.listen_unix cfg.socket in
    Unix.set_nonblock lfd;
    Hashtbl.replace t.peers lfd Listener;
    while not (finished t) do
      pump t
    done;
    teardown t ~grace:3.0;
    0
