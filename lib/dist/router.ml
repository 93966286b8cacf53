module Protocol = Mimd_server.Protocol
module Json = Mimd_server.Json
module Server = Mimd_server.Server
module Metrics = Mimd_obs.Metrics
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

(* The shard key: a stable digest of the request's semantic fields.
   Identical requests always land on the same worker (hot memory LRU);
   textual variants of one loop may split across workers but still
   meet in the shared content-addressed disk cache. *)
let shard_key (p : Protocol.compile_params) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%d|%d|%d" p.Protocol.loop p.Protocol.processors p.Protocol.k
          p.Protocol.iterations))

(* ---------------------------------------------------------------- *)
(* Worker child: the ordinary serve stack on its own socket.          *)

let worker_jobs cfg = match cfg.jobs with Some j -> j | None -> Server.default_jobs ~cap:4

let worker_path cfg idx = Filename.concat cfg.worker_dir (Printf.sprintf "worker-%d.sock" idx)

let run_worker ~idx ~path ~jobs ~queue_depth ~cache_dir ~validate ~trace =
  (* Forked from the router: shed anything inherited that is not ours. *)
  (match trace with
  | None -> ()
  | Some base ->
    Trace.clear ();
    Trace.set_sink ~threshold:256 (Printf.sprintf "%s.worker%d" base idx));
  let server = Server.make ?cache_dir ~validate ~jobs ~queue_depth () in
  let code = Server.serve_socket server ~path in
  Server.shutdown server;
  Trace.close_sink ();
  exit code

(* ---------------------------------------------------------------- *)
(* The warden: the only process allowed to fork after boot.

   OCaml 5 forbids Unix.fork in a process that has ever created a
   domain — and the router grows reader/client threads the moment the
   fleet is up.  So respawn supervision forks a *warden* child first,
   while the router is still single-threaded: a tiny fork server that
   never creates threads or domains and re-forks workers on command
   over a Wire-framed socketpair.  Respawned workers are the warden's
   children (it reaps them); the router only ever talks to them
   through their serve sockets, exactly like the initial fleet. *)

type warden_cmd = Spawn of int
type warden_reply = Spawned of { idx : int; pid : int }

type warden = { w_pid : int; w_fd : Unix.file_descr; w_mutex : Mutex.t }

let warden_loop cfg fd =
  let jobs = worker_jobs cfg in
  let children = ref [] in
  let reap_zombies () =
    children :=
      List.filter
        (fun pid ->
          match Unix.waitpid [ Unix.WNOHANG ] pid with
          | 0, _ -> true
          | _ -> false
          | exception Unix.Unix_error _ -> false)
        !children
  in
  let rec loop () =
    match (Wire.read fd : (warden_cmd, Wire.error) result) with
    | Error _ ->
      (* Router gone (shutdown or crash).  Its shutdown_fleet already
         asked every live worker to exit over its serve socket; give
         ours a grace window, then make sure, then leave — no orphans. *)
      let deadline = Unix.gettimeofday () +. 5.0 in
      let rec drain () =
        reap_zombies ();
        if !children <> [] && Unix.gettimeofday () < deadline then begin
          Unix.sleepf 0.05;
          drain ()
        end
      in
      drain ();
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children;
      Unix._exit 0
    | Ok (Spawn idx) -> (
      reap_zombies ();
      let path = worker_path cfg idx in
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      match Unix.fork () with
      | 0 ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        run_worker ~idx ~path ~jobs ~queue_depth:cfg.queue_depth ~cache_dir:cfg.cache_dir
          ~validate:cfg.validate ~trace:cfg.trace
      | pid ->
        children := pid :: !children;
        (try Wire.write fd (Spawned { idx; pid }) with _ -> ());
        loop ())
  in
  loop ()

(* Fork the warden while the router is still thread-free. *)
let spawn_warden cfg =
  let router_fd, warden_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    (try Unix.close router_fd with Unix.Unix_error _ -> ());
    warden_loop cfg warden_fd
  | pid ->
    (try Unix.close warden_fd with Unix.Unix_error _ -> ());
    { w_pid = pid; w_fd = router_fd; w_mutex = Mutex.create () }

let warden_spawn w idx =
  Mutex.lock w.w_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.w_mutex)
    (fun () ->
      match
        Wire.write w.w_fd (Spawn idx);
        (Wire.read w.w_fd : (warden_reply, Wire.error) result)
      with
      | Ok (Spawned { idx = i; pid }) when i = idx -> Some pid
      | Ok _ | Error _ -> None
      | exception _ -> None)

(* ---------------------------------------------------------------- *)
(* Router state                                                       *)

(* A reply sink: a client connection's out_channel behind a mutex, so
   reader threads of different workers may answer it concurrently. *)
type client = { send : string -> unit }

let client_of_channel oc =
  let mutex = Mutex.create () in
  {
    send =
      (fun line ->
        Mutex.lock mutex;
        Fun.protect
          ~finally:(fun () -> Mutex.unlock mutex)
          (fun () ->
            try
              output_string oc line;
              output_char oc '\n';
              flush oc
            with Sys_error _ -> () (* client went away; its replies are moot *)));
  }

let client_reply client r = client.send (Protocol.reply_to_line r)

type pending = {
  orig_id : Json.t;
  request : Json.t;  (** full request object, [id] stripped *)
  key : string;
  client : client;
  mutable attempts : int;
}

type worker = {
  idx : int;
  pid : int;
  path : string;
  fd : Unix.file_descr;
  ic : in_channel;
  w_oc : out_channel;
  w_mutex : Mutex.t;
  mutable alive : bool;
}

type t = {
  cfg : config;
  ring : Ring.t;
  workers : worker array;  (** slot [i] is replaced on respawn *)
  warden : warden option;
  pending : (int, int * pending) Hashtbl.t;  (* rid -> (worker idx, request) *)
  pending_mutex : Mutex.t;
  next_rid : int Atomic.t;
  inflight : int Atomic.t;
  stop : bool Atomic.t;
  death_mutex : Mutex.t;  (* serialises failover and respawn decisions *)
  respawn_budget : int array;
  breaker : Respawn.t;
  (* Supervision events (respawn, respawn_failed, breaker_tripped)
     surfaced in stats. *)
  mutable events : Json.t list;  (* newest first, bounded *)
  events_mutex : Mutex.t;
  extra_threads : Thread.t list ref;  (* respawned readers *)
  extra_mutex : Mutex.t;
  registry : Metrics.t;
  m_requests : Metrics.counter;
  m_shed : Metrics.counter;
  m_deaths : Metrics.counter;
  m_retries : Metrics.counter;
  m_respawns : Metrics.counter;
  m_inflight : Metrics.gauge;
  m_shard_hits : Metrics.counter array;
}

let live_workers t =
  Array.fold_left (fun n w -> if w.alive then n + 1 else n) 0 t.workers

let max_events = 32

let push_event t ev =
  Mutex.lock t.events_mutex;
  t.events <- ev :: List.filteri (fun i _ -> i < max_events - 1) t.events;
  Mutex.unlock t.events_mutex

let event ~kind ~worker fields =
  Json.Obj
    ([
       ("kind", Json.String kind);
       ("worker", Json.Int worker);
       ("at", Json.Float (Unix.gettimeofday ()));
     ]
    @ fields)

let track_thread t th =
  Mutex.lock t.extra_mutex;
  t.extra_threads := th :: !(t.extra_threads);
  Mutex.unlock t.extra_mutex

(* ---------------------------------------------------------------- *)
(* Spawning and connecting the fleet                                  *)

let connect_retry ~path ~deadline =
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Some fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Unix.gettimeofday () > deadline then None
      else begin
        Unix.sleepf 0.05;
        go ()
      end
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  go ()

exception Boot_failure of string

(* Fork the whole fleet FIRST — the router has spawned no domain and
   no thread yet, which is the only window OCaml 5 allows fork in.
   (Respawns later go through the pre-forked warden.) *)
let spawn_fleet cfg =
  Mimd_util.Fs.mkdir_p cfg.worker_dir;
  let jobs = worker_jobs cfg in
  Array.init cfg.workers (fun idx ->
      let path = worker_path cfg idx in
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      match Unix.fork () with
      | 0 ->
        run_worker ~idx ~path ~jobs ~queue_depth:cfg.queue_depth ~cache_dir:cfg.cache_dir
          ~validate:cfg.validate ~trace:cfg.trace
      | pid -> (idx, pid, path))

(* Dial one worker and prove its serve loop answers (synchronous boot
   ping) before it joins the fleet — shared by boot and respawn. *)
let connect_worker ~deadline ~idx ~pid ~path =
  match connect_retry ~path ~deadline with
  | None -> Error (Printf.sprintf "worker %d (pid %d) never bound %s" idx pid path)
  | Some fd -> (
    let ic = Unix.in_channel_of_descr fd in
    let w_oc = Unix.out_channel_of_descr fd in
    output_string w_oc "{\"id\":\"boot\",\"op\":\"ping\"}\n";
    flush w_oc;
    let booted =
      match In_channel.input_line ic with
      | Some line ->
        Option.bind (Json.parse_opt line) (fun j ->
            Option.bind (Json.member "ok" j) Json.to_bool_opt)
        = Some true
      | None | (exception Sys_error _) -> false
    in
    if booted then
      Ok { idx; pid; path; fd; ic; w_oc; w_mutex = Mutex.create (); alive = true }
    else begin
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "worker %d (pid %d) failed its boot ping" idx pid)
    end)

let connect_fleet spawned =
  let deadline = Unix.gettimeofday () +. 15.0 in
  Array.map
    (fun (idx, pid, path) ->
      match connect_worker ~deadline ~idx ~pid ~path with
      | Ok w -> w
      | Error msg -> raise (Boot_failure msg))
    spawned

(* ---------------------------------------------------------------- *)
(* Dispatch and failover                                              *)

let set_inflight t = Metrics.set t.m_inflight (float_of_int (Atomic.get t.inflight))

let finish_request t =
  Atomic.decr t.inflight;
  set_inflight t

let strip_id json =
  match json with
  | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "id") fields)
  | other -> other

let with_rid request rid =
  match request with
  | Json.Obj fields -> Json.Obj (("id", Json.Int rid) :: fields)
  | other -> other

let worker_send w line =
  Mutex.lock w.w_mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock w.w_mutex)
    (fun () ->
      try
        output_string w.w_oc line;
        output_char w.w_oc '\n';
        flush w.w_oc;
        true
      with Sys_error _ -> false)

(* Failover takes the dead worker's *record*, not its index: respawn
   replaces [t.workers.(idx)], and a racing EOF/EPIPE observed on the
   old record must not take down the fresh one. *)
let rec handle_worker_death t (w : worker) =
  let idx = w.idx in
  Mutex.lock t.death_mutex;
  let was_alive = t.workers.(idx) == w && w.alive in
  if was_alive then begin
    w.alive <- false;
    (try Unix.close w.fd with Unix.Unix_error _ -> ());
    (* Initial workers are our children; respawned ones are the
       warden's (its reap).  ECHILD is expected for the latter. *)
    (try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ());
    if not (Atomic.get t.stop) then Metrics.inc t.m_deaths
  end;
  Mutex.unlock t.death_mutex;
  if was_alive && not (Atomic.get t.stop) then begin
    (* Re-shard every request that was in flight on the dead worker:
       accepted requests are never dropped while any worker lives. *)
    Mutex.lock t.pending_mutex;
    let orphaned =
      Hashtbl.fold
        (fun rid (wi, p) acc -> if wi = idx then (rid, p) :: acc else acc)
        t.pending []
    in
    List.iter (fun (rid, _) -> Hashtbl.remove t.pending rid) orphaned;
    Mutex.unlock t.pending_mutex;
    List.iter
      (fun (_, p) ->
        Metrics.inc t.m_retries;
        dispatch t p)
      orphaned;
    maybe_respawn t idx
  end

and dispatch t p =
  p.attempts <- p.attempts + 1;
  if p.attempts > Array.length t.workers + 1 then begin
    client_reply p.client
      (Protocol.Error
         {
           id = p.orig_id;
           kind = Protocol.Internal;
           message = "request could not be placed on any worker";
         });
    finish_request t
  end
  else
    match Ring.lookup t.ring ~key:p.key ~alive:(fun i -> t.workers.(i).alive) with
    | None ->
      client_reply p.client
        (Protocol.Error
           { id = p.orig_id; kind = Protocol.Internal; message = "no live workers" });
      finish_request t
    | Some idx ->
      let w = t.workers.(idx) in
      Metrics.inc t.m_shard_hits.(idx);
      let rid = Atomic.fetch_and_add t.next_rid 1 in
      Mutex.lock t.pending_mutex;
      Hashtbl.replace t.pending rid (idx, p);
      Mutex.unlock t.pending_mutex;
      let line = Json.to_string (with_rid p.request rid) in
      if not (worker_send w line) then begin
        (* The write itself found the worker dead: failover now (the
           entry we just registered rides along with the rest). *)
        handle_worker_death t w
      end

(* Respawn supervision: budgeted per worker, storm-bounded fleet-wide.
   Runs on whichever thread observed the death (reader or dispatcher);
   the warden does the actual fork. *)
and maybe_respawn t idx =
  match t.warden with
  | None -> ()
  | Some warden ->
    let admitted =
      Mutex.lock t.death_mutex;
      let was_tripped = Respawn.tripped t.breaker in
      let ok = t.respawn_budget.(idx) > 0 && Respawn.record t.breaker in
      if ok then t.respawn_budget.(idx) <- t.respawn_budget.(idx) - 1;
      let now_tripped = Respawn.tripped t.breaker in
      Mutex.unlock t.death_mutex;
      if now_tripped && not was_tripped then
        push_event t
          (event ~kind:"breaker_tripped" ~worker:idx
             [
               ("limit", Json.Int (Respawn.limit t.breaker));
               ("window_s", Json.Float (Respawn.window t.breaker));
             ]);
      ok
    in
    if admitted then begin
      Trace.instant ~args:[ ("worker", string_of_int idx) ] "route.respawn";
      match warden_spawn warden idx with
      | None ->
        push_event t
          (event ~kind:"respawn_failed" ~worker:idx
             [ ("reason", Json.String "warden unreachable") ])
      | Some pid -> (
        let deadline = Unix.gettimeofday () +. 15.0 in
        match connect_worker ~deadline ~idx ~pid ~path:(worker_path t.cfg idx) with
        | Error msg ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          push_event t
            (event ~kind:"respawn_failed" ~worker:idx [ ("reason", Json.String msg) ])
        | Ok w ->
          Mutex.lock t.death_mutex;
          t.workers.(idx) <- w;
          Mutex.unlock t.death_mutex;
          (* Event before counter: whoever sees the respawn counted
             also finds it in [stats.events]. *)
          push_event t (event ~kind:"respawn" ~worker:idx [ ("pid", Json.Int pid) ]);
          Metrics.inc t.m_respawns;
          track_thread t (Thread.create (reader_loop t) w))
    end

(* Reader thread: one per worker incarnation, owns that worker's
   inbound side. *)
and reader_loop t (w : worker) =
  let rec loop () =
    match In_channel.input_line w.ic with
    | None | (exception Sys_error _) -> handle_worker_death t w
    | Some line -> (
      match Json.parse line with
      | exception Json.Parse_error _ -> loop () (* torn frame from a dying worker *)
      | reply_json ->
        (match Option.bind (Json.member "id" reply_json) Json.to_int_opt with
        | None -> () (* boot-ping stragglers etc.: unroutable, drop *)
        | Some rid -> (
          let entry =
            Mutex.lock t.pending_mutex;
            let e = Hashtbl.find_opt t.pending rid in
            (match e with Some _ -> Hashtbl.remove t.pending rid | None -> ());
            Mutex.unlock t.pending_mutex;
            e
          in
          match entry with
          | None -> () (* already failed over; a late duplicate *)
          | Some (_, p) ->
            let restored =
              match reply_json with
              | Json.Obj fields ->
                Json.Obj
                  (List.map
                     (fun (k, v) -> if k = "id" then (k, p.orig_id) else (k, v))
                     fields)
              | other -> other
            in
            p.client.send (Json.to_string restored);
            finish_request t));
        loop ())
  in
  loop ()

(* ---------------------------------------------------------------- *)
(* Router-answered ops                                                *)

let stats_json t =
  let events =
    Mutex.lock t.events_mutex;
    let e = t.events in
    Mutex.unlock t.events_mutex;
    e
  in
  Json.Obj
    [
      ("router", Json.Bool true);
      ( "workers",
        Json.List
          (Array.to_list
             (Array.map
                (fun w ->
                  Json.Obj
                    [
                      ("idx", Json.Int w.idx);
                      ("pid", Json.Int w.pid);
                      ("path", Json.String w.path);
                      ("alive", Json.Bool w.alive);
                    ])
                t.workers)) );
      ("live", Json.Int (live_workers t));
      ("inflight", Json.Int (Atomic.get t.inflight));
      ("max_inflight", Json.Int t.cfg.max_inflight);
      ("shed", Json.Int (Metrics.counter_value t.m_shed));
      ("worker_deaths", Json.Int (Metrics.counter_value t.m_deaths));
      ("retries", Json.Int (Metrics.counter_value t.m_retries));
      ("respawns", Json.Int (Metrics.counter_value t.m_respawns));
      ( "respawn",
        Json.Obj
          [
            ("enabled", Json.Bool (t.warden <> None));
            ( "budget",
              Json.List
                (Array.to_list (Array.map (fun b -> Json.Int b) t.respawn_budget)) );
            ("breaker_tripped", Json.Bool (Respawn.tripped t.breaker));
          ] );
      ("events", Json.List events);
    ]

let shutdown_fleet t =
  Array.iter
    (fun w ->
      if w.alive then begin
        ignore (worker_send w "{\"id\":\"stop\",\"op\":\"shutdown\"}");
        (* The worker replies Bye and closes; its reader thread sees
           EOF and (stop being set) retires the worker quietly. *)
        ()
      end)
    t.workers;
  Array.iter
    (fun w -> try ignore (Unix.waitpid [] w.pid) with Unix.Unix_error _ -> ())
    t.workers;
  Array.iter
    (fun w -> try Unix.unlink w.path with Unix.Unix_error _ -> ())
    t.workers;
  (* EOF on the command channel is the warden's shutdown signal; it
     reaps its own children (respawned workers) before exiting. *)
  match t.warden with
  | None -> ()
  | Some w ->
    (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ())

(* ---------------------------------------------------------------- *)
(* Client connections                                                 *)

let serve_client t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let client = client_of_channel oc in
  let rec loop () =
    if Atomic.get t.stop then ()
    else
      match In_channel.input_line ic with
      | None | (exception Sys_error _) -> ()
      | Some line when String.trim line = "" -> loop ()
      | Some line -> (
        Trace.span ~cat:"route" "route.request" @@ fun () ->
        match Protocol.request_of_line line with
        | Error (id, message) ->
          client_reply client (Protocol.Error { id; kind = Protocol.Protocol; message });
          loop ()
        | Ok (Protocol.Ping { id }) ->
          Metrics.inc t.m_requests;
          client_reply client (Protocol.Pong { id });
          loop ()
        | Ok (Protocol.Stats { id }) ->
          Metrics.inc t.m_requests;
          client_reply client (Protocol.Stats_reply { id; stats = stats_json t });
          loop ()
        | Ok (Protocol.Metrics { id }) ->
          Metrics.inc t.m_requests;
          set_inflight t;
          client_reply client
            (Protocol.Metrics_reply { id; text = Metrics.render t.registry });
          loop ()
        | Ok (Protocol.Shutdown { id }) ->
          Metrics.inc t.m_requests;
          Atomic.set t.stop true;
          client_reply client (Protocol.Bye { id })
        | Ok (Protocol.Compile { id; params }) ->
          Metrics.inc t.m_requests;
          (* Admission control: bounded in-flight, shed on saturation
             with a structured overload error — the client can back
             off and retry; nothing was dispatched. *)
          let admitted =
            let rec try_admit () =
              let n = Atomic.get t.inflight in
              if n >= t.cfg.max_inflight then false
              else if Atomic.compare_and_set t.inflight n (n + 1) then true
              else try_admit ()
            in
            try_admit ()
          in
          if not admitted then begin
            Metrics.inc t.m_shed;
            client_reply client
              (Protocol.Error
                 {
                   id;
                   kind = Protocol.Overload;
                   message =
                     Printf.sprintf "router at max in-flight (%d); retry later"
                       t.cfg.max_inflight;
                 })
          end
          else begin
            set_inflight t;
            let request =
              match Json.parse line with
              | j -> strip_id j
              | exception Json.Parse_error _ -> Json.Null (* unreachable: it parsed above *)
            in
            dispatch t
              {
                orig_id = id;
                request;
                key = shard_key params;
                client;
                attempts = 0;
              }
          end;
          loop ())
  in
  loop ()

(* ---------------------------------------------------------------- *)
(* Front door                                                         *)

let serve cfg =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let spawned = spawn_fleet cfg in
  (* The warden forks second, still pre-thread; it must exist before
     the router grows reader threads or respawn is impossible. *)
  let warden = if cfg.respawn > 0 then Some (spawn_warden cfg) else None in
  (* Only now may this process create threads; and the parent's own
     streaming sink opens after the forks so children never inherit
     the fd. *)
  (match cfg.trace with
  | None -> ()
  | Some base -> Trace.set_sink ~threshold:256 base);
  match connect_fleet spawned with
  | exception Boot_failure msg ->
    Array.iter
      (fun (_, pid, _) ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      spawned;
    (match warden with
    | None -> ()
    | Some w ->
      (try Unix.close w.w_fd with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ());
    prerr_endline ("mimdloop: route: " ^ msg);
    1
  | workers ->
    let registry = Metrics.create () in
    let t =
      {
        cfg;
        ring = Ring.create cfg.workers;
        workers;
        warden;
        pending = Hashtbl.create 64;
        pending_mutex = Mutex.create ();
        next_rid = Atomic.make 1;
        inflight = Atomic.make 0;
        stop = Atomic.make false;
        death_mutex = Mutex.create ();
        respawn_budget = Array.make cfg.workers (max 0 cfg.respawn);
        (* Storm bound: a healthy fleet never needs more than a couple
           of respawns per worker inside one window. *)
        breaker = Respawn.create ~limit:(max 4 (2 * cfg.workers)) ();
        events = [];
        events_mutex = Mutex.create ();
        extra_threads = ref [];
        extra_mutex = Mutex.create ();
        registry;
        m_requests =
          Metrics.counter ~help:"Requests received by the router" registry
            "mimd_route_requests_total";
        m_shed =
          Metrics.counter ~help:"Requests shed by admission control" registry
            "mimd_route_shed_total";
        m_deaths =
          Metrics.counter ~help:"Worker processes lost" registry
            "mimd_route_worker_deaths_total";
        m_retries =
          Metrics.counter ~help:"Requests re-dispatched after a worker death" registry
            "mimd_route_retries_total";
        m_respawns =
          Metrics.counter ~help:"Workers respawned by the warden" registry
            "mimd_dist_respawns_total";
        m_inflight =
          Metrics.gauge ~help:"Compile requests currently in flight" registry
            "mimd_route_inflight";
        m_shard_hits =
          Array.init cfg.workers (fun i ->
              Metrics.counter ~help:"Requests dispatched, by worker"
                ~labels:[ ("worker", string_of_int i) ]
                registry "mimd_route_shard_hits_total");
      }
    in
    let readers =
      Array.to_list (Array.map (fun w -> Thread.create (reader_loop t) w) workers)
    in
    (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
    let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind listen_fd (Unix.ADDR_UNIX cfg.socket);
    Unix.listen listen_fd 16;
    let threads = ref [] in
    let conns = ref [] in
    let conns_mutex = Mutex.create () in
    let handle fd =
      serve_client t fd;
      if Atomic.get t.stop then begin
        (* Wake the blocked accept with a throwaway connection (it
           re-checks the stop flag first) and kick every other client
           off its blocking read — same idiom as the serve socket
           loop. *)
        (let kick = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
         (try Unix.connect kick (Unix.ADDR_UNIX cfg.socket) with Unix.Unix_error _ -> ());
         (try Unix.close kick with Unix.Unix_error _ -> ()));
        Mutex.lock conns_mutex;
        List.iter
          (fun c -> try Unix.shutdown c Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
          !conns;
        Mutex.unlock conns_mutex
      end;
      Mutex.lock conns_mutex;
      conns := List.filter (fun c -> c <> fd) !conns;
      Mutex.unlock conns_mutex;
      (try Unix.close fd with Unix.Unix_error _ -> ())
    in
    let rec accept_loop () =
      if Atomic.get t.stop then ()
      else begin
        match Unix.accept listen_fd with
        | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _)
          ->
          ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
        | fd, _ ->
          Mutex.lock conns_mutex;
          conns := fd :: !conns;
          Mutex.unlock conns_mutex;
          threads := Thread.create handle fd :: !threads;
          accept_loop ()
      end
    in
    accept_loop ();
    List.iter Thread.join !threads;
    shutdown_fleet t;
    List.iter Thread.join readers;
    Mutex.lock t.extra_mutex;
    let extras = !(t.extra_threads) in
    Mutex.unlock t.extra_mutex;
    List.iter Thread.join extras;
    (try Unix.close listen_fd with Unix.Unix_error _ -> ());
    (try Unix.unlink cfg.socket with Unix.Unix_error _ -> ());
    Trace.close_sink ();
    0
