module Config = Mimd_machine.Config
module Trace = Mimd_obs.Trace
module Clock = Mimd_obs.Clock

type t = {
  service : Service.t;
  pool : Pool.t;
  stop : bool Atomic.t;  (* a shutdown request was served *)
}

let create ~service ~pool () = { service; pool; stop = Atomic.make false }

let default_jobs ~cap = max 1 (min cap (Domain.recommended_domain_count ()))

let make ?comm_opt ?cache_dir ~validate ~jobs ~queue_depth () =
  let disk = Option.map (fun dir -> Disk_cache.create ~dir) cache_dir in
  let service = Service.create ?disk ~validate ?comm_opt () in
  create ~service ~pool:(Pool.create ~queue_depth ~jobs ()) ()

let service t = t.service
let pool t = t.pool
let shutdown t = Pool.shutdown t.pool

let deadline_of ~received params =
  Option.map (fun ms -> received +. (ms /. 1e3)) params.Protocol.deadline_ms

let error_reply id (e : Service.error) =
  Protocol.Error { id; kind = e.Service.kind; message = e.Service.message }

(* A compile job's result, with any exception it escapes with turned
   into one [internal] error: every admitted request gets exactly one
   reply (a raising pool job would otherwise be dropped silently). *)
let guarded compile =
  try compile ()
  with exn -> Error { Service.kind = Protocol.Internal; message = Printexc.to_string exn }

(* Serve one decoded request; [reply] must be safe to call from any
   worker domain.  Returns [`Stop] when the frame was a shutdown. *)
let dispatch t ~reply req =
  match req with
  | Protocol.Compile { id; params } ->
    let received = Unix.gettimeofday () in
    let deadline = deadline_of ~received params in
    let submitted_ns = Clock.now_ns () in
    Pool.submit t.pool (fun () ->
        (* The wait is measured across domains (stamped on the reader,
           recorded by the worker), so it cannot be a [span]. *)
        let dequeued_ns = Clock.now_ns () in
        Trace.record ~cat:"serve" ~name:"serve.queue_wait" ~start_ns:submitted_ns
          ~end_ns:dequeued_ns ();
        Service.observe_queue_wait t.service
          (float_of_int (dequeued_ns - submitted_ns) /. 1e6);
        match
          Trace.span ~cat:"serve" "serve.compile" (fun () ->
              guarded (fun () -> Service.compile_params t.service ?deadline params))
        with
        | Ok outcome -> reply (Protocol.Compiled { id; result = outcome.Service.result })
        | Error e -> reply (error_reply id e));
    `Continue
  | Protocol.Stats { id } ->
    (* Through the pool, not inline: with one worker this orders the
       stats snapshot after every compile submitted before it. *)
    Pool.submit t.pool (fun () ->
        reply
          (Protocol.Stats_reply
             { id; stats = Service.stats_json ~pool:t.pool t.service }));
    `Continue
  | Protocol.Metrics { id } ->
    Pool.submit t.pool (fun () ->
        reply
          (Protocol.Metrics_reply
             { id; text = Service.metrics_text ~pool:t.pool t.service }));
    `Continue
  | Protocol.Ping { id } ->
    Pool.submit t.pool (fun () -> reply (Protocol.Pong { id }));
    `Continue
  | Protocol.Shutdown { id } ->
    Atomic.set t.stop true;
    Pool.submit t.pool (fun () -> reply (Protocol.Bye { id }));
    `Stop

(* ---------------------------------------------------------------- *)
(* Channel loop, shared by --stdio and by each socket connection.     *)

(* [true] when this channel carried the shutdown frame. *)
let serve_until_shutdown t ic oc =
  let out_mutex = Mutex.create () in
  let reply r =
    Trace.span ~cat:"serve" "serve.reply" @@ fun () ->
    Mutex.lock out_mutex;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock out_mutex)
      (fun () ->
        output_string oc (Protocol.reply_to_line r);
        output_char oc '\n';
        flush oc)
  in
  let rec loop () =
    if Atomic.get t.stop then false
    else
      match In_channel.input_line ic with
      | None | (exception Sys_error _) -> false
      | Some line when String.trim line = "" -> loop ()
      | Some line -> (
        Trace.instant "serve.accept";
        match Protocol.request_of_line line with
        | Error (id, message) ->
          reply (Protocol.Error { id; kind = Protocol.Protocol; message });
          loop ()
        | Ok req -> (
          match dispatch t ~reply req with `Continue -> loop () | `Stop -> true))
  in
  let stopped = loop () in
  (* Every submitted job replies before we let the channel go. *)
  Pool.quiesce t.pool;
  stopped

let serve_channels t ic oc = ignore (serve_until_shutdown t ic oc)

let serve_stdio t =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  serve_channels t stdin stdout;
  0

(* ---------------------------------------------------------------- *)
(* Unix-domain-socket server                                          *)

type conn_registry = { mutable fds : Unix.file_descr list; mutex : Mutex.t }

let registry_add reg fd =
  Mutex.lock reg.mutex;
  reg.fds <- fd :: reg.fds;
  Mutex.unlock reg.mutex

let registry_remove reg fd =
  Mutex.lock reg.mutex;
  reg.fds <- List.filter (fun f -> f <> fd) reg.fds;
  Mutex.unlock reg.mutex

let registry_shutdown_all reg =
  Mutex.lock reg.mutex;
  List.iter
    (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    reg.fds;
  Mutex.unlock reg.mutex

let listen_unix path =
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 16;
  fd

let serve_socket ?listener t ~path =
  (* A client that disconnects mid-reply must cost us an EPIPE error,
     not a fatal SIGPIPE. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let listen_fd = match listener with Some fd -> fd | None -> listen_unix path in
  let reg = { fds = []; mutex = Mutex.create () } in
  let threads = ref [] in
  let handle fd =
    let ic = Unix.in_channel_of_descr fd in
    let oc = Unix.out_channel_of_descr fd in
    (* Only the connection that carried the shutdown kicks the others:
       one that merely ends after the stop flag is set must not cut
       the shutdown connection off before its bye is written. *)
    if serve_until_shutdown t ic oc then begin
      (* This connection carried the shutdown.  A blocked accept(2) is
         not interruptible portably, so wake the accept loop with a
         throwaway connection (it re-checks the stop flag first), and
         kick every other connection off its blocking read. *)
      (let kick = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       (try Unix.connect kick (Unix.ADDR_UNIX path) with Unix.Unix_error _ -> ());
       try Unix.close kick with Unix.Unix_error _ -> ());
      registry_shutdown_all reg
    end;
    registry_remove reg fd;
    (try flush oc with Sys_error _ -> ());
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let rec accept_loop () =
    if Atomic.get t.stop then ()
    else begin
      (* Backpressure: a saturated work queue stalls accepts, so load
         queues in clients' connect backlogs, not in our memory. *)
      Pool.wait_capacity t.pool;
      match Unix.accept listen_fd with
      | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL | Unix.ECONNABORTED), _, _) ->
        ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
      | fd, _ ->
        registry_add reg fd;
        threads := Thread.create handle fd :: !threads;
        accept_loop ()
    end
  in
  accept_loop ();
  List.iter Thread.join !threads;
  Pool.quiesce t.pool;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  0

(* ---------------------------------------------------------------- *)
(* Batch: same service and pool, no socket — a whole corpus at once.  *)

let is_loop_file name = Filename.check_suffix name ".loop"

let rec walk dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
    Array.sort compare entries;
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then acc @ walk path
        else if is_loop_file entry then acc @ [ path ]
        else acc)
      [] entries

let collect_corpus paths =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | p :: rest ->
      if Sys.file_exists p then
        if Sys.is_directory p then go (List.rev_append (walk p) acc) rest
        else go (p :: acc) rest
      else Error (Printf.sprintf "no such file or directory: %s" p)
  in
  match go [] paths with
  | Error _ as e -> e
  | Ok [] -> Error "empty corpus: no .loop files found"
  | Ok files -> Ok files

let batch t ~machine ~iterations ?deadline_ms ~paths () =
  match collect_corpus paths with
  | Error msg ->
    prerr_endline ("mimdloop: " ^ msg);
    1
  | Ok files ->
    let print_mutex = Mutex.create () in
    let say fmt =
      Printf.ksprintf
        (fun s ->
          Mutex.lock print_mutex;
          print_string s;
          flush stdout;
          Mutex.unlock print_mutex)
        fmt
    in
    let failures = Atomic.make 0 in
    let t_start = Unix.gettimeofday () in
    List.iter
      (fun path ->
        let received = Unix.gettimeofday () in
        let deadline = Option.map (fun ms -> received +. (ms /. 1e3)) deadline_ms in
        Pool.submit t.pool (fun () ->
            match In_channel.with_open_text path In_channel.input_all with
            | exception Sys_error e ->
              Atomic.incr failures;
              say "%-40s ERROR internal: %s\n" path e
            | source -> (
              match
                guarded (fun () ->
                    Service.compile t.service ?deadline ~loop:source ~machine ~iterations ())
              with
              | Ok o ->
                let r = o.Service.result in
                say "%-40s %s makespan %d on %d proc(s), %%par %.1f, %.1f ms\n" path
                  (Protocol.tier_name r.Protocol.tier) r.Protocol.makespan
                  r.Protocol.processors r.Protocol.percentage_parallelism
                  r.Protocol.elapsed_ms
              | Error e ->
                Atomic.incr failures;
                say "%-40s ERROR %s: %s\n" path
                  (Protocol.error_kind_name e.Service.kind)
                  e.Service.message)))
      files;
    Pool.quiesce t.pool;
    let elapsed = Unix.gettimeofday () -. t_start in
    let mem = Service.memory_stats t.service in
    say "\n%d loop(s) in %.2f s on %d worker(s): %d ok, %d failed\n" (List.length files)
      elapsed (Pool.jobs t.pool)
      (List.length files - Atomic.get failures)
      (Atomic.get failures);
    say "memory cache: %d hit(s), %d miss(es), %d eviction(s)\n"
      mem.Mimd_runtime.Schedule_cache.hits mem.Mimd_runtime.Schedule_cache.misses
      mem.Mimd_runtime.Schedule_cache.evictions;
    (match Service.disk_stats t.service with
    | None -> ()
    | Some d ->
      say "disk cache:   %d hit(s), %d miss(es), %d store(s)\n" d.Disk_cache.hits
        d.Disk_cache.misses d.Disk_cache.stores);
    (* The run-parallel convention from PR 2: any failed request means
       a non-zero exit, even though every failure also produced a
       structured per-file report above. *)
    if Atomic.get failures > 0 then 1 else 0
