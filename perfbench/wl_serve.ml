(* Workload [serve]: the compile service reached through the router.

   Set-up boots [mimdloop route --workers 2 --jobs 1] with a fresh
   --cache-dir and warms a fixed hot set of 16 requests.  The op loop
   is closed, over 2 connections: 80% of requests repeat a hot one
   (memory-tier reads), 20% are fresh (a seeded random loop at a trip
   count no earlier request used), which the fleet must compute and
   write to memory, disk and the lowered tier. *)

open Common
module Json = Mimd_server.Json
module Protocol = Mimd_server.Protocol
module Prng = Mimd_util.Prng

let workers = 2
let connections = 2
let hot_share = 0.8
let hot_iterations = 250

type request = { loop : string; iterations : int }

let params r =
  {
    Protocol.loop = r.loop;
    processors = 2;
    k = 2;
    iterations = r.iterations;
    deadline_ms = None;
    validate = None;
  }

let line ~id r =
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Int id);
         ("op", Json.String "compile");
         ("loop", Json.String r.loop);
         ("processors", Json.Int 2);
         ("k", Json.Int 2);
         ("iterations", Json.Int r.iterations);
       ])

(* The hot set: the first 16 loops of the compile pool, fixed for every
   seed so the quality metrics repeat. *)
let hot_set () =
  List.filteri (fun i _ -> i < 16) (Wl_compile.fixed_pool ())
  |> List.map (fun (e : Wl_compile.entry) ->
         { loop = e.source; iterations = hot_iterations })
  |> Array.of_list

(* Fresh trip counts: a seeded permutation, so no two fresh requests of
   a run share one and none meets a hot request's. *)
let fresh_iterations rng =
  let a = Array.init 1000 (fun i -> 300 + i) in
  Prng.shuffle rng a;
  a

let fresh_request rng trips =
  let loop = Mimd_workloads.Random_loop.generate_loop ~fanout:0.3 ~seed:(Prng.int rng 1_000_000) () in
  { loop = Format.asprintf "%a" Mimd_loop_ir.Ast.pp_loop loop; iterations = trips }

(* ---- a line-protocol client ---- *)

type conn = { ic : in_channel; oc : out_channel }

let connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error _ when tries > 0 ->
      Unix.close fd;
      Unix.sleepf 0.01;
      go (tries - 1)
  in
  go 1000

let close c = close_in_noerr c.ic

let call c text =
  output_string c.oc text;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

let member_exn k j =
  match Json.member k j with Some v -> v | None -> failwith ("reply lacks " ^ k)

(* ---- the fleet ---- *)

type fleet = { pid : int; dir : string; socket : string; router : conn }

let boot ~mimdloop ~dir =
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "r.sock" in
  let log = Unix.openfile (Filename.concat dir "route.log") [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process mimdloop
      [|
        mimdloop; "route"; "--socket"; socket; "--workers"; string_of_int workers; "--jobs";
        "1"; "--cache-dir"; Filename.concat dir "cache";
      |]
      Unix.stdin log log
  in
  Unix.close log;
  { pid; dir; socket; router = connect socket }

let compile_reply c ~id r =
  let reply = Json.parse (call c (line ~id r)) in
  match Json.member "ok" reply with
  | Some (Json.Bool true) -> Ok reply
  | _ -> Error (Json.to_string reply)

let warm fleet hot =
  Array.iteri
    (fun i r ->
      match compile_reply fleet.router ~id:i r with
      | Ok _ -> ()
      | Error e -> failwith ("warming the hot set: " ^ e))
    hot

let rec reap pid =
  match Unix.waitpid [] pid with
  | _ -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap pid

let shutdown fleet =
  (try ignore (call fleet.router {|{"id":0,"op":"shutdown"}|}) with _ -> ());
  close fleet.router;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] fleet.pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.02;
      wait ()
    | 0, _ ->
      (try Unix.kill fleet.pid Sys.sigkill with Unix.Unix_error _ -> ());
      reap fleet.pid
    | _ -> ()
  in
  wait ();
  rm_rf fleet.dir

let stats c =
  member_exn "stats" (Json.parse (call c {|{"id":0,"op":"stats"}|}))

let worker_socket fleet i = Filename.concat fleet.dir (Printf.sprintf "worker-%d.sock" i)

(* ---- the op loop ---- *)

type reply = {
  tier : string;
  makespan : int;
  procs : int;
  sp : float;
  hot : int option;  (** index into the hot set *)
}

let decode reply ~hot =
  let int k = Option.get (Json.to_int_opt (member_exn k reply)) in
  {
    tier = Option.get (Json.to_string_opt (member_exn "tier" reply));
    makespan = int "makespan";
    procs = int "processors";
    sp = Option.get (Json.to_float_opt (member_exn "percentage_parallelism" reply));
    hot;
  }

(* The in-process protocol work one request costs the server: decode
   the request line, encode the reply line. *)
let protocol_roundtrip text (r : reply) =
  layer "server.protocol" (fun () ->
      match Protocol.request_of_line text with
      | Ok req ->
        ignore
          (Protocol.reply_to_line
             (Protocol.Compiled
                {
                  id = Protocol.request_id req;
                  result =
                    {
                      Protocol.tier = Protocol.Memory_hit;
                      makespan = r.makespan;
                      processors = r.procs;
                      pattern = true;
                      folded = false;
                      sequential = r.makespan;
                      percentage_parallelism = r.sp;
                      elapsed_ms = 0.0;
                      comm = None;
                    };
                }))
      | Error _ -> failwith "request_of_line refused a request")

type client_result = {
  mutable lat : float list;
  mutable replies : reply list;
  mutable failures : string list;
}

(* One connection's closed loop.  [next_fresh] hands out fresh
   requests; [first_op] spaces op ids between the clients. *)
let client ~socket ~hot ~rng ~next_fresh ~deadline ~first_op =
  let c = connect socket in
  let res = { lat = []; replies = []; failures = [] } in
  let id = ref first_op in
  while now_ns () < deadline do
    let hot_idx =
      if Prng.float rng 1.0 < hot_share then Some (Prng.int rng (Array.length hot)) else None
    in
    let r = match hot_idx with Some i -> hot.(i) | None -> next_fresh () in
    let text = line ~id:!id r in
    Span.set_op !id;
    incr id;
    let t0 = now_ns () in
    match Span.span "op" (fun () -> call c text) with
    | exception e -> res.failures <- Printexc.to_string e :: res.failures
    | answer -> (
      let ms = ms_of_ns (now_ns () - t0) in
      let reply = Json.parse answer in
      match Json.member "ok" reply with
      | Some (Json.Bool true) ->
        let d = decode reply ~hot:hot_idx in
        if !Span.on then protocol_roundtrip text d;
        res.lat <- ms :: res.lat;
        res.replies <- d :: res.replies
      | _ -> res.failures <- answer :: res.failures)
  done;
  close c;
  res

(* Fresh requests for a whole run: trip counts come from [trips] in
   order, so the traced half of a traced run never repeats one. *)
let fresh_source ~rng ~trips =
  let lock = Mutex.create () in
  let used = ref 0 in
  fun () ->
    Mutex.lock lock;
    let n = trips.(!used mod Array.length trips) in
    incr used;
    let r = fresh_request rng n in
    Mutex.unlock lock;
    r

let op_loop fleet ~hot ~rng ~next_fresh ~seconds ~first_op =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let results = Array.make connections None in
  let threads =
    List.init connections (fun i ->
        let rng = Prng.split rng in
        Thread.create
          (fun () ->
            results.(i) <-
              Some
                (client ~socket:fleet.socket ~hot ~rng ~next_fresh ~deadline
                   ~first_op:(first_op + (i * 1_000_000))))
          ())
  in
  List.iter Thread.join threads;
  let rs = Array.to_list results |> List.filter_map Fun.id in
  ( List.concat_map (fun r -> r.lat) rs,
    List.concat_map (fun r -> r.replies) rs,
    List.concat_map (fun r -> r.failures) rs )

(* ---- checks against the in-process service ---- *)

let machine = Mimd_machine.Config.make ~processors:2 ~comm_estimate:2

let in_process service r =
  match
    Mimd_server.Service.compile service ~loop:r.loop ~machine ~iterations:r.iterations ()
  with
  | Ok o -> o
  | Error e -> failwith ("in-process compile: " ^ e.Mimd_server.Service.message)

(* Hot replies must agree with an in-process compile of the same
   request; fresh replies must all have been computed. *)
let check_replies expected replies =
  List.filter_map
    (fun r ->
      match r.hot with
      | None when r.tier <> "computed" ->
        Some (Printf.sprintf "fresh request answered from tier %s" r.tier)
      | None -> None
      | Some i ->
        let (e : Protocol.compiled) = expected.(i) in
        if
          e.makespan = r.makespan && e.processors = r.procs
          && Float.abs (e.percentage_parallelism -. r.sp) < 1e-9
        then None
        else Some (Printf.sprintf "hot request %d disagrees with Service.compile" i))
    replies

let quality service hot =
  let outs = Array.to_list (Array.map (in_process service) hot) in
  let programs =
    List.map
      (fun (o : Mimd_server.Service.outcome) ->
        Mimd_codegen.From_schedule.run o.full.Mimd_core.Full_sched.schedule)
      outs
  in
  let sum f = List.fold_left (fun a p -> a + f p) 0 programs in
  {
    sp_pct_mean =
      mean
        (List.map
           (fun (o : Mimd_server.Service.outcome) -> o.result.percentage_parallelism)
           outs);
    messages_total = sum Mimd_codegen.Comm_opt.messages;
    code_instrs_total = sum Mimd_codegen.Program.instruction_count;
  }

(* ---- per-layer measurements ---- *)

(* Service.compile in process: the first call of a request computes,
   the second reads the memory tier.  The hot loops are compiled at two
   trip counts, so the second set reuses the first's prepared prefix
   (Incr); then [fresh] adds requests no earlier one resembles. *)
let service_layers hot fresh =
  let service = Mimd_server.Service.create () in
  let again = Array.map (fun r -> { r with iterations = 2 * r.iterations }) hot in
  List.iter
    (fun r -> Span.span "server.miss" (fun () -> ignore (in_process service r)))
    (Array.to_list hot @ Array.to_list again @ fresh);
  for _ = 1 to 5 do
    Array.iter (fun r -> Span.span "server.hit" (fun () -> ignore (in_process service r))) hot
  done;
  Array.iteri
    (fun id r ->
      let o = in_process service r in
      protocol_roundtrip (line ~id r)
        {
          tier = "memory";
          makespan = o.result.makespan;
          procs = o.result.processors;
          sp = o.result.percentage_parallelism;
          hot = None;
        })
    hot

(* Same hot requests, via the router and straight to the owning
   worker's socket; the difference of the medians is the router hop. *)
let router_hop_ms fleet hot =
  let ring = Mimd_dist.Ring.create workers in
  let direct = Array.init workers (fun i -> connect (worker_socket fleet i)) in
  let via = ref [] and straight = ref [] and problems = ref [] in
  let time c r =
    let t0 = now_ns () in
    let reply = compile_reply c ~id:1 r in
    (ms_of_ns (now_ns () - t0), reply)
  in
  for _ = 1 to 10 do
    Array.iter
      (fun r ->
        let owner = Mimd_dist.Ring.shard ring ~key:(Mimd_dist.Router.shard_key (params r)) in
        let a, _ = time fleet.router r in
        let b, reply = time direct.(owner) r in
        (match reply with
        | Ok j when Json.member "tier" j = Some (Json.String "memory") -> ()
        | _ -> problems := "router hop: owning worker did not hold a hot request" :: !problems);
        via := a :: !via;
        straight := b :: !straight)
      hot
  done;
  Array.iter close direct;
  (median !via -. median !straight, !problems)

(* The fleet's pool queue wait: p90 over every worker's
   mimd_pool_queue_wait_ms histogram, interpolated within buckets. *)
let queue_wait_p90 fleet =
  let buckets = Hashtbl.create 32 in
  for i = 0 to workers - 1 do
    let c = connect (worker_socket fleet i) in
    let text =
      Option.get
        (Json.to_string_opt (member_exn "metrics" (Json.parse (call c {|{"id":0,"op":"metrics"}|}))))
    in
    close c;
    List.iter
      (fun l ->
        let prefix = "mimd_pool_queue_wait_ms_bucket{le=\"" in
        let pl = String.length prefix in
        if String.length l > pl && String.sub l 0 pl = prefix then begin
          let q = String.index_from l pl '"' in
          let le = String.sub l pl (q - pl) in
          let count = float_of_string (String.trim (String.sub l (q + 2) (String.length l - q - 2))) in
          let le = if le = "+Inf" then infinity else float_of_string le in
          Hashtbl.replace buckets le (count +. Option.value ~default:0.0 (Hashtbl.find_opt buckets le))
        end)
      (String.split_on_char '\n' text)
  done;
  let bs = Hashtbl.fold (fun le c acc -> (le, c) :: acc) buckets [] |> List.sort compare in
  let total = match List.rev bs with (_, c) :: _ -> c | [] -> 0.0 in
  let target = 0.9 *. total in
  let rec find prev_le prev_c = function
    | [] -> prev_le
    | (le, c) :: _ when c >= target ->
      if le = infinity || c = prev_c then prev_le
      else prev_le +. ((le -. prev_le) *. (target -. prev_c) /. (c -. prev_c))
    | (le, c) :: rest -> find le c rest
  in
  if total = 0.0 then 0.0 else find 0.0 0.0 bs

(* Memory high-water marks of the router and every worker. *)
let fleet_rss_mb fleet =
  let pids =
    match member_exn "workers" (stats fleet.router) with
    | Json.List ws ->
      List.filter_map (fun w -> Option.bind (Json.member "pid" w) Json.to_int_opt) ws
    | _ -> []
  in
  List.fold_left (fun a pid -> a +. peak_rss_mb (string_of_int pid)) 0.0 (fleet.pid :: pids)

let incr_reuse_share fleet =
  let hits = ref 0 and total = ref 0 in
  for i = 0 to workers - 1 do
    let c = connect (worker_socket fleet i) in
    let s = stats c in
    close c;
    let prep = member_exn "incr_prep" s in
    let get k = Option.value ~default:0 (Option.bind (Json.member k prep) Json.to_int_opt) in
    hits := !hits + get "hits";
    total := !total + get "hits" + get "misses"
  done;
  if !total = 0 then 0.0 else float_of_int !hits /. float_of_int !total
