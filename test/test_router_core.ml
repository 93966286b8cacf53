(* Router_core as a state machine: qcheck properties over random
   interleavings of client lines, client closes, worker replies, worker
   deaths and spawn outcomes, with 1-4 workers and respawn on and off.

   A harness plays the shell and the workers: it feeds one event at a
   time, carries out the actions (a forwarded request queues on its
   worker, a spawn waits until the interleaving completes or fails it)
   and checks every invariant after every step.  At the end traffic
   stops: pending spawns complete, boot pings are answered and every
   queued request is answered, and the in-flight count must be back
   at zero.  A failing case prints the events it fed. *)

open Helpers
module Core = Mimd_dist.Router_core
module Json = Mimd_server.Json

type op =
  | Line of int * int  (** client 0-2 sends request kind 0-9 *)
  | Close of int  (** client 0-2 disconnects (it reconnects under a fresh id) *)
  | Answer of int  (** a worker answers one of its queued requests *)
  | Ack of int  (** a booting worker answers its boot ping *)
  | Kill of int  (** a connected worker's connection closes *)
  | Spawn_ok of int  (** the shell completes a requested spawn *)
  | Spawn_err of int  (** ... or reports it failed *)
  | Later  (** 11 s pass: the breaker's window moves on *)

type case = { workers : int; respawn : int; max_inflight : int; ops : op list }

let gen_case =
  QCheck2.Gen.(
    let* workers = int_range 1 4 in
    let* respawn = oneof [ return 0; int_range 1 3; return 20 ] in
    let* max_inflight = int_range 1 8 in
    (* Per case: whether a shutdown may come, how hard workers churn,
       and whether the breaker's window gets to move on. *)
    let* shutdown = frequencyl [ (2, 0); (1, 1) ] in
    let* churn = oneofl [ 1; 4; 12 ] in
    let* later = oneofl [ 0; 1; 4 ] in
    let small = int_range 0 7 in
    let op =
      frequency
        [
          (8, map2 (fun c k -> Line (c, k)) (int_range 0 2) (oneofl [ 0; 1; 2; 3; 4; 5; 6; 7; 9 ]));
          (shutdown, map (fun c -> Line (c, 8)) (int_range 0 2));
          (6, map (fun i -> Answer i) small);
          (1, map (fun c -> Close c) (int_range 0 2));
          (churn, map (fun i -> Kill i) small);
          (2, map (fun i -> Ack i) small);
          (churn, map (fun i -> Spawn_ok i) small);
          (1, map (fun i -> Spawn_err i) small);
          (later, return Later);
        ]
    in
    (* Storms: kill, respawn and boot a worker over and over, long
       enough to overflow the event list unless the breaker trips. *)
    let storm =
      let block =
        let* i = small and* acked = bool and* pause = bool and* extra = op in
        return
          ([ Kill i; Spawn_ok 0 ] @ (if acked then [ Ack 0 ] else [])
          @ (if pause then [ Later ] else [])
          @ [ extra ])
      in
      map List.concat (list_size (int_range 10 60) block)
    in
    let* ops = frequency [ (3, list_size (int_range 0 250) op); (1, storm) ] in
    return { workers; respawn; max_inflight; ops })

(* The request a client line carries, by kind; [id] is unique per run. *)
let request_line ~id kind =
  match kind with
  | 0 | 1 | 2 | 3 | 4 ->
    Printf.sprintf {|{"id":%d,"op":"compile","loop":"for i = 1 to n { X[i] = X[i-1] + %d; }"}|}
      id kind
  | 5 -> Printf.sprintf {|{"id":%d,"op":"ping"}|} id
  | 6 -> Printf.sprintf {|{"id":%d,"op":"stats"}|} id
  | 7 -> Printf.sprintf {|{"id":%d,"op":"metrics"}|} id
  | 8 -> Printf.sprintf {|{"id":%d,"op":"shutdown"}|} id
  | _ -> Printf.sprintf {|{"id":%d,"op":"retune"}|} id

type worker = Down | Spawning | Up of { pid : int; acked : bool; queue : int list }

type sim = {
  mutable core : Core.state;
  mutable now : float;
  mutable fed : Core.event list;  (** newest first *)
  mutable violations : (string * string) list;
  workers : worker array;
  client_ids : int array;  (** the live id of client slot 0-2 *)
  closed : (int, unit) Hashtbl.t;
  owner : (int, int) Hashtbl.t;  (** request id -> client id *)
  replies : (int, int) Hashtbl.t;  (** request id -> replies seen *)
  mutable next_id : int;
  mutable next_pid : int;
}

let violate sim prop fmt =
  Printf.ksprintf (fun m -> sim.violations <- (prop, m) :: sim.violations) fmt

let int_id line = Option.bind (Json.member "id" (Json.parse line)) Json.to_int_opt

let status_name = function `Live -> "live" | `Booting -> "booting" | `Dead -> "dead"

(* Every admitted request of a still-open client has exactly one reply. *)
let check_answered sim ~when_ =
  Hashtbl.iter
    (fun id client ->
      let n = Option.value ~default:0 (Hashtbl.find_opt sim.replies id) in
      if (not (Hashtbl.mem sim.closed client)) && n <> 1 then
        violate sim "one reply" "request %d of client %d has %d replies %s" id client n when_)
    sim.owner

let rec feed sim ev =
  if not (Core.stopped sim.core) then begin
    sim.now <- sim.now +. 0.01;
    sim.fed <- ev :: sim.fed;
    let before = sim.core in
    let after, actions = Core.step before ~now:sim.now ev in
    sim.core <- after;
    check_step sim before after;
    List.iter (perform sim after) actions
  end

and check_step sim before after =
  if Core.breaker_tripped before && not (Core.breaker_tripped after) then
    violate sim "one-way supervision" "the breaker un-tripped";
  if List.exists2 (fun b a -> a > b) (Core.budgets before) (Core.budgets after) then
    violate sim "one-way supervision" "a respawn budget rose";
  let evs = Core.events after in
  if List.length evs > 32 then violate sim "events" "%d events kept" (List.length evs);
  let ats =
    List.map (fun e -> Option.bind (Json.member "at" e) Json.to_float_opt |> Option.get) evs
  in
  if ats <> List.sort (fun a b -> compare b a) ats then
    violate sim "events" "events are not newest first";
  let pending = Core.pending_slots after in
  if Core.inflight after <> List.length pending then
    violate sim "in-flight" "in-flight %d but %d requests pending" (Core.inflight after)
      (List.length pending);
  List.iter
    (fun s ->
      if Core.slot_status after s <> `Live then
        violate sim "no dead forward" "a request waits on %s slot %d"
          (status_name (Core.slot_status after s)) s)
    pending

and perform sim after = function
  | Core.Reply { client; line } -> (
    if Hashtbl.mem sim.closed client then
      violate sim "one reply" "reply to closed client %d" client;
    match int_id line with
    | Some id ->
      let n = 1 + Option.value ~default:0 (Hashtbl.find_opt sim.replies id) in
      Hashtbl.replace sim.replies id n;
      if n > 1 then violate sim "one reply" "request %d answered %d times" id n
    | None -> violate sim "one reply" "reply without a request id: %s" line)
  | Core.Forward { slot; line } -> (
    if Core.slot_status after slot <> `Live then
      violate sim "no dead forward" "forwarded to %s slot %d"
        (status_name (Core.slot_status after slot)) slot;
    match (sim.workers.(slot), int_id line) with
    | Up w, Some rid -> sim.workers.(slot) <- Up { w with queue = w.queue @ [ rid ] }
    | _ -> violate sim "no dead forward" "forwarded to unconnected slot %d" slot)
  | Core.Spawn { slot } -> sim.workers.(slot) <- Spawning
  | Core.Retire _ -> ()
  | Core.Stop -> check_answered sim ~when_:"at stop"

(* The [i]-th slot (mod their number) satisfying [p], if any. *)
let pick sim i p =
  let all = List.init (Array.length sim.workers) Fun.id in
  match List.filter (fun s -> p sim.workers.(s)) all with
  | [] -> None
  | slots -> Some (List.nth slots (i mod List.length slots))

let spawn_ok sim slot =
  let pid = sim.next_pid in
  sim.next_pid <- pid + 1;
  sim.workers.(slot) <- Up { pid; acked = false; queue = [] };
  feed sim (Core.Spawned { slot; pid })

let ack sim slot =
  match sim.workers.(slot) with
  | Up w ->
    sim.workers.(slot) <- Up { w with acked = true };
    feed sim (Core.Worker_line { slot; line = {|{"id":"boot","ok":true,"pong":true}|} })
  | _ -> ()

let answer sim slot i =
  match sim.workers.(slot) with
  | Up ({ queue = _ :: _; _ } as w) ->
    let rid = List.nth w.queue (i mod List.length w.queue) in
    sim.workers.(slot) <- Up { w with queue = List.filter (( <> ) rid) w.queue };
    feed sim
      (Core.Worker_line { slot; line = Printf.sprintf {|{"id":%d,"ok":true,"tier":"memory"}|} rid })
  | _ -> ()

let apply sim op =
  match op with
  | _ when Core.stopped sim.core -> ()
  | Line (c, kind) ->
    let id = sim.next_id in
    sim.next_id <- id + 1;
    Hashtbl.replace sim.owner id sim.client_ids.(c);
    feed sim (Core.Client_line { client = sim.client_ids.(c); line = request_line ~id kind })
  | Close c ->
    let client = sim.client_ids.(c) in
    Hashtbl.replace sim.closed client ();
    sim.client_ids.(c) <- client + 3;
    feed sim (Core.Client_closed { client })
  | Answer i ->
    Option.iter
      (fun s -> answer sim s i)
      (pick sim i (function Up { queue = _ :: _; _ } -> true | _ -> false))
  | Ack i ->
    Option.iter (ack sim) (pick sim i (function Up { acked = false; _ } -> true | _ -> false))
  | Kill i ->
    Option.iter
      (fun slot ->
        sim.workers.(slot) <- Down;
        feed sim (Core.Worker_closed { slot }))
      (pick sim i (function Up _ -> true | _ -> false))
  | Spawn_ok i -> Option.iter (spawn_ok sim) (pick sim i (( = ) Spawning))
  | Spawn_err i ->
    Option.iter
      (fun slot ->
        sim.workers.(slot) <- Down;
        feed sim (Core.Spawn_failed { slot; reason = "fork: EAGAIN" }))
      (pick sim i (( = ) Spawning))
  | Later -> sim.now <- sim.now +. 11.0

(* Boot the fleet, play the interleaving, then let traffic stop. *)
let run (case : case) =
  let paths = Array.init case.workers (Printf.sprintf "w%d.sock") in
  let core, spawns =
    Core.create
      {
        Core.workers = case.workers;
        max_inflight = case.max_inflight;
        respawn = case.respawn;
        paths;
      }
  in
  let sim =
    {
      core;
      now = 1000.0;
      fed = [];
      violations = [];
      workers = Array.make case.workers Down;
      client_ids = [| 0; 1; 2 |];
      closed = Hashtbl.create 8;
      owner = Hashtbl.create 64;
      replies = Hashtbl.create 64;
      next_id = 1;
      next_pid = 100;
    }
  in
  List.iter (perform sim core) spawns;
  for slot = 0 to case.workers - 1 do
    spawn_ok sim slot;
    ack sim slot
  done;
  if Core.boot_status sim.core <> `Up then violate sim "boot" "the fleet did not boot";
  List.iter (apply sim) case.ops;
  let settled () =
    Array.for_all
      (function Down -> true | Spawning -> false | Up w -> w.acked && w.queue = [])
      sim.workers
  in
  let rounds = ref 0 in
  while (not (Core.stopped sim.core)) && (not (settled ())) && !rounds < 1000 do
    incr rounds;
    Array.iteri
      (fun slot w ->
        match w with
        | Spawning -> spawn_ok sim slot
        | Up { acked = false; _ } -> ack sim slot
        | Up { queue = _ :: _; _ } -> answer sim slot 0
        | Up _ | Down -> ())
      sim.workers
  done;
  if Core.inflight sim.core <> 0 then
    violate sim "in-flight" "%d still in flight once traffic stopped" (Core.inflight sim.core);
  check_answered sim ~when_:"once traffic stopped";
  sim

let show_event = function
  | Core.Client_line { client; line } -> Printf.sprintf "client %d: %s" client line
  | Core.Client_closed { client } -> Printf.sprintf "client %d closed" client
  | Core.Worker_line { slot; line } -> Printf.sprintf "worker %d: %s" slot line
  | Core.Worker_closed { slot } -> Printf.sprintf "worker %d closed" slot
  | Core.Spawned { slot; pid } -> Printf.sprintf "spawned %d (pid %d)" slot pid
  | Core.Spawn_failed { slot; reason } -> Printf.sprintf "spawn %d failed: %s" slot reason

let print_case (case : case) =
  let sim = run case in
  Printf.sprintf "workers=%d respawn=%d max_inflight=%d\nevents:\n  %s\nviolations:\n  %s"
    case.workers case.respawn case.max_inflight
    (String.concat "\n  " (List.rev_map show_event sim.fed))
    (String.concat "\n  " (List.map (fun (p, m) -> p ^ ": " ^ m) sim.violations))

let holds prop case = not (List.mem_assoc prop (run case).violations)

let properties =
  [
    ("every admitted request gets exactly one reply", "one reply");
    ("in-flight returns to 0 once traffic stops", "in-flight");
    ("nothing is forwarded to a dead or booting slot", "no dead forward");
    ("budgets only fall and the breaker never un-trips", "one-way supervision");
    ("stats.events: at most 32, newest first", "events");
  ]

(* The pinned race: slot 0 dies, its respawn is forked, a request whose
   key belongs to slot 0 arrives while the new worker boots, and the
   new worker dies before answering its boot ping. *)
let test_death_during_respawn_boot () =
  let case = { workers = 2; respawn = 1; max_inflight = 4; ops = [] } in
  let sim = run case in
  let key_on_0 =
    List.find
      (fun kind ->
        let params =
          match Mimd_server.Protocol.request_of_line (request_line ~id:0 kind) with
          | Ok (Mimd_server.Protocol.Compile { params; _ }) -> params
          | _ -> assert false
        in
        Mimd_dist.Ring.shard (Mimd_dist.Ring.create 2) ~key:(Core.shard_key params) = 0)
      [ 0; 1; 2; 3; 4 ]
  in
  sim.workers.(0) <- Down;
  feed sim (Core.Worker_closed { slot = 0 });
  check_bool "respawn requested" true (sim.workers.(0) = Spawning);
  spawn_ok sim 0;
  check_bool "slot 0 booting" true (Core.slot_status sim.core 0 = `Booting);
  apply sim (Line (0, key_on_0));
  check_bool "request spilled to slot 1" true (Core.pending_slots sim.core = [ 1 ]);
  sim.workers.(0) <- Down;
  feed sim (Core.Worker_closed { slot = 0 });
  check_bool "slot 0 dead" true (Core.slot_status sim.core 0 = `Dead);
  check_bool "budget spent, no further spawn" true (sim.workers.(0) = Down);
  answer sim 1 0;
  check_int "in flight" 0 (Core.inflight sim.core);
  check_int "one reply" 1 (Hashtbl.find sim.replies (sim.next_id - 1));
  check_bool "respawn_failed recorded" true
    (match Core.events sim.core with
    | e :: _ -> Json.member "kind" e = Some (Json.String "respawn_failed")
    | [] -> false);
  check_bool "no violations" true (sim.violations = [])

let test_boot_failure () =
  let core, _ =
    Core.create { Core.workers = 2; max_inflight = 4; respawn = 2; paths = [| "a"; "b" |] }
  in
  let core, _ = Core.step core ~now:0.0 (Core.Spawned { slot = 0; pid = 7 }) in
  let core, acts = Core.step core ~now:0.0 (Core.Worker_closed { slot = 0 }) in
  check_bool "no respawn before boot" true (acts = []);
  check_bool "boot failed" true
    (match Core.boot_status core with `Failed _ -> true | _ -> false)

let suite =
  List.map
    (fun (name, prop) ->
      qtest ~count:150 ("router core: " ^ name) gen_case print_case (holds prop))
    properties
  @ [
      Alcotest.test_case "router core: worker dies during its respawn boot" `Quick
        test_death_during_respawn_boot;
      Alcotest.test_case "router core: a death before boot fails the boot" `Quick
        test_boot_failure;
    ]
