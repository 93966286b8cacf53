module Protocol = Mimd_server.Protocol
module Json = Mimd_server.Json
module Metrics = Mimd_obs.Metrics
module Int_map = Map.Make (Int)

type config = { workers : int; max_inflight : int; respawn : int; paths : string array }

type event =
  | Client_line of { client : int; line : string }
  | Client_closed of { client : int }
  | Worker_line of { slot : int; line : string }
  | Worker_closed of { slot : int }
  | Spawned of { slot : int; pid : int }
  | Spawn_failed of { slot : int; reason : string }

type action =
  | Reply of { client : int; line : string }
  | Forward of { slot : int; line : string }
  | Spawn of { slot : int }
  | Retire of { slot : int }
  | Stop

(* [incarnation] counts spawns: the first boot is 1, a respawn > 1. *)
type slot = { pid : int; status : [ `Booting | `Live | `Dead ]; incarnation : int }

type pending = {
  client : int option;  (** [None] once the client has closed *)
  orig_id : Json.t;
  request : Json.t;  (** full request object, [id] stripped *)
  key : string;
  attempts : int;
  on_slot : int;
}

(* Persistent: arrays are copied, never written, once a state escapes. *)
type state = {
  cfg : config;
  ring : Ring.t;
  slots : slot array;
  booted : bool;  (** every slot has been live at least once *)
  boot_error : string option;
  pending : pending Int_map.t;  (** router-assigned id -> request *)
  next_rid : int;
  inflight : int;
  draining : bool;
  stopped : bool;
  budget : int array;
  breaker : Respawn.t;  (** copied before every [Respawn.record] *)
  events : Json.t list;  (** newest first, at most [max_events] *)
  requests : int;
  shed : int;
  deaths : int;
  retries : int;
  respawns : int;
  shard_hits : int array;
}

let max_events = 32
let boot_line = {|{"id":"boot","op":"ping"}|}
let retire_line = {|{"id":"stop","op":"shutdown"}|}

(* Identical requests always land on the same worker (hot memory LRU);
   textual variants of one loop may split across workers but still
   meet in the shared content-addressed disk cache. *)
let shard_key (p : Protocol.compile_params) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|%d|%d|%d" p.Protocol.loop p.Protocol.processors p.Protocol.k
          p.Protocol.iterations))

let create cfg =
  let t =
    {
      cfg;
      ring = Ring.create cfg.workers;
      slots = Array.make cfg.workers { pid = 0; status = `Dead; incarnation = 0 };
      booted = false;
      boot_error = None;
      pending = Int_map.empty;
      next_rid = 1;
      inflight = 0;
      draining = false;
      stopped = false;
      budget = Array.make cfg.workers (max 0 cfg.respawn);
      (* Storm bound: a healthy fleet never needs more than a couple of
         respawns per worker inside one window. *)
      breaker = Respawn.create ~limit:(max 4 (2 * cfg.workers)) ();
      events = [];
      requests = 0;
      shed = 0;
      deaths = 0;
      retries = 0;
      respawns = 0;
      shard_hits = Array.make cfg.workers 0;
    }
  in
  (t, List.init cfg.workers (fun slot -> Spawn { slot }))

let set a i v =
  let a = Array.copy a in
  a.(i) <- v;
  a

let set_slot t i s = { t with slots = set t.slots i s }

let push_event t ~now ~kind ~worker fields =
  let ev =
    Json.Obj
      ([ ("kind", Json.String kind); ("worker", Json.Int worker); ("at", Json.Float now) ]
      @ fields)
  in
  { t with events = ev :: List.filteri (fun i _ -> i < max_events - 1) t.events }

let reply client r = Reply { client; line = Protocol.reply_to_line r }

let error_reply client ~id kind message = reply client (Protocol.Error { id; kind; message })

(* Answer an admitted request without a worker and release its slot. *)
let fail_request t (p : pending) message =
  ( { t with inflight = t.inflight - 1 },
    match p.client with
    | Some c -> [ error_reply c ~id:p.orig_id Protocol.Internal message ]
    | None -> [] )

let with_rid request rid =
  match request with
  | Json.Obj fields -> Json.Obj (("id", Json.Int rid) :: fields)
  | other -> other

let dispatch t (p : pending) =
  let p = { p with attempts = p.attempts + 1 } in
  if p.attempts > t.cfg.workers + 1 then
    fail_request t p "request could not be placed on any worker"
  else
    match Ring.lookup t.ring ~key:p.key ~alive:(fun i -> t.slots.(i).status = `Live) with
    | None -> fail_request t p "no live workers"
    | Some slot ->
      let rid = t.next_rid in
      ( {
          t with
          next_rid = rid + 1;
          pending = Int_map.add rid { p with on_slot = slot } t.pending;
          shard_hits = set t.shard_hits slot (t.shard_hits.(slot) + 1);
        },
        [ Forward { slot; line = Json.to_string (with_rid p.request rid) } ] )

(* ---------------------------------------------------------------- *)
(* Observers                                                          *)

let stats_json t =
  Json.Obj
    [
      ("router", Json.Bool true);
      ( "workers",
        Json.List
          (List.init t.cfg.workers (fun i ->
               let s = t.slots.(i) in
               Json.Obj
                 [
                   ("idx", Json.Int i);
                   ("pid", Json.Int s.pid);
                   ("path", Json.String t.cfg.paths.(i));
                   ("alive", Json.Bool (s.status = `Live));
                 ])) );
      ( "live",
        Json.Int (Array.fold_left (fun n s -> n + Bool.to_int (s.status = `Live)) 0 t.slots) );
      ("inflight", Json.Int t.inflight);
      ("max_inflight", Json.Int t.cfg.max_inflight);
      ("shed", Json.Int t.shed);
      ("worker_deaths", Json.Int t.deaths);
      ("retries", Json.Int t.retries);
      ("respawns", Json.Int t.respawns);
      ( "respawn",
        Json.Obj
          [
            ("enabled", Json.Bool (t.cfg.respawn > 0));
            ("budget", Json.List (Array.to_list (Array.map (fun b -> Json.Int b) t.budget)));
            ("breaker_tripped", Json.Bool (Respawn.tripped t.breaker));
          ] );
      ("events", Json.List t.events);
    ]

(* A fresh registry per render: the counts live in the state. *)
let metrics_text t =
  let r = Metrics.create () in
  let count ~help name n = Metrics.inc ~by:n (Metrics.counter ~help r name) in
  count ~help:"Requests received by the router" "mimd_route_requests_total" t.requests;
  count ~help:"Requests shed by admission control" "mimd_route_shed_total" t.shed;
  count ~help:"Worker processes lost" "mimd_route_worker_deaths_total" t.deaths;
  count ~help:"Requests re-dispatched after a worker death" "mimd_route_retries_total" t.retries;
  count ~help:"Dead workers the router respawned" "mimd_dist_respawns_total" t.respawns;
  Metrics.set
    (Metrics.gauge ~help:"Compile requests currently in flight" r "mimd_route_inflight")
    (float_of_int t.inflight);
  Array.iteri
    (fun i n ->
      Metrics.inc ~by:n
        (Metrics.counter ~help:"Requests dispatched, by worker"
           ~labels:[ ("worker", string_of_int i) ]
           r "mimd_route_shard_hits_total"))
    t.shard_hits;
  Metrics.render r

(* ---------------------------------------------------------------- *)
(* Clients                                                            *)

let strip_id = function
  | Json.Obj fields -> Json.Obj (List.filter (fun (k, _) -> k <> "id") fields)
  | other -> other

let client_line t client line =
  match Protocol.request_of_line line with
  | Error (id, message) -> (t, [ error_reply client ~id Protocol.Protocol message ])
  | Ok req -> (
    let t = { t with requests = t.requests + 1 } in
    match req with
    | Protocol.Ping { id } -> (t, [ reply client (Protocol.Pong { id }) ])
    | Protocol.Stats { id } ->
      (t, [ reply client (Protocol.Stats_reply { id; stats = stats_json t }) ])
    | Protocol.Metrics { id } ->
      (t, [ reply client (Protocol.Metrics_reply { id; text = metrics_text t }) ])
    | Protocol.Shutdown { id } ->
      ({ t with draining = true }, [ reply client (Protocol.Bye { id }) ])
    | Protocol.Compile { id; _ } when t.draining ->
      (t, [ error_reply client ~id Protocol.Overload "router is shutting down; not dispatched" ])
    | Protocol.Compile { id; _ } when t.inflight >= t.cfg.max_inflight ->
      (* Shed with a structured overload error: nothing was dispatched,
         the client may back off and retry. *)
      ( { t with shed = t.shed + 1 },
        [
          error_reply client ~id Protocol.Overload
            (Printf.sprintf "router at max in-flight (%d); retry later" t.cfg.max_inflight);
        ] )
    | Protocol.Compile { id; params } ->
      dispatch
        { t with inflight = t.inflight + 1 }
        {
          client = Some client;
          orig_id = id;
          request = strip_id (Json.parse line);
          key = shard_key params;
          attempts = 0;
          on_slot = -1;
        })

(* ---------------------------------------------------------------- *)
(* Workers                                                            *)

let restore_id orig_id = function
  | Json.Obj fields ->
    Json.Obj (List.map (fun (k, v) -> if k = "id" then (k, orig_id) else (k, v)) fields)
  | other -> other

let mark_live t ~now slot =
  let s = t.slots.(slot) in
  let t = set_slot t slot { s with status = `Live } in
  let t =
    if s.incarnation > 1 then
      push_event { t with respawns = t.respawns + 1 } ~now ~kind:"respawn" ~worker:slot
        [ ("pid", Json.Int s.pid) ]
    else t
  in
  { t with booted = t.booted || Array.for_all (fun s -> s.status = `Live) t.slots }

let worker_line t ~now slot line =
  match Json.parse_opt line with
  | None -> (t, []) (* a torn frame from a dying worker *)
  | Some reply_json -> (
    match Json.member "id" reply_json with
    | Some (Json.Int rid) -> (
      match Int_map.find_opt rid t.pending with
      | Some p when p.on_slot = slot ->
        let t = { t with pending = Int_map.remove rid t.pending; inflight = t.inflight - 1 } in
        let line = Json.to_string (restore_id p.orig_id reply_json) in
        (t, match p.client with Some c -> [ Reply { client = c; line } ] | None -> [])
      | _ -> (t, []))
    | Some (Json.String "boot")
      when t.slots.(slot).status = `Booting
           && Option.bind (Json.member "ok" reply_json) Json.to_bool_opt = Some true ->
      (mark_live t ~now slot, [])
    | _ -> (t, []) (* the retire frame's bye, and other unroutable lines *))

(* Respawn supervision: budgeted per slot, storm-bounded fleet-wide. *)
let maybe_respawn t ~now slot =
  if t.cfg.respawn = 0 || t.draining || t.budget.(slot) = 0 then (t, [])
  else begin
    let breaker = Respawn.copy t.breaker in
    let was_tripped = Respawn.tripped breaker in
    let admitted = Respawn.record ~now breaker in
    let t = { t with breaker } in
    let t =
      if Respawn.tripped breaker && not was_tripped then
        push_event t ~now ~kind:"breaker_tripped" ~worker:slot
          [
            ("limit", Json.Int (Respawn.limit breaker));
            ("window_s", Json.Float (Respawn.window breaker));
          ]
      else t
    in
    if not admitted then (t, [])
    else ({ t with budget = set t.budget slot (t.budget.(slot) - 1) }, [ Spawn { slot } ])
  end

(* Before the fleet is up a failure fails the boot; after, it is a
   supervision event. *)
let spawn_failed t ~now slot reason =
  if not t.booted then { t with boot_error = Some (Printf.sprintf "worker %d: %s" slot reason) }
  else push_event t ~now ~kind:"respawn_failed" ~worker:slot [ ("reason", Json.String reason) ]

let worker_closed t ~now slot =
  let s = t.slots.(slot) in
  let t' = set_slot t slot { s with status = `Dead } in
  match s.status with
  | `Dead -> (t, [])
  | _ when not t.booted ->
    (spawn_failed t' ~now slot (Printf.sprintf "pid %d exited before the fleet was up" s.pid), [])
  | `Booting ->
    let reason = Printf.sprintf "pid %d failed its boot ping" s.pid in
    maybe_respawn (spawn_failed t' ~now slot reason) ~now slot
  | `Live ->
    let t = if t.draining then t' else { t' with deaths = t.deaths + 1 } in
    let orphaned, pending = Int_map.partition (fun _ p -> p.on_slot = slot) t.pending in
    (* Accepted requests are never dropped while any worker lives; a
       draining router answers instead of re-sharding. *)
    let t, acts =
      Int_map.fold
        (fun _ p (t, acts) ->
          let t, a =
            if t.draining then
              fail_request t p (Printf.sprintf "worker %d exited before replying" slot)
            else dispatch { t with retries = t.retries + 1 } p
          in
          (t, acts @ a))
        orphaned
        ({ t with pending }, [])
    in
    let t, spawn = maybe_respawn t ~now slot in
    (t, acts @ spawn)

(* Once a draining router has answered everything it admitted, retire
   the fleet and stop. *)
let finish_drain (t, acts) =
  if t.draining && t.inflight = 0 && not t.stopped then
    let retire =
      List.filter_map
        (fun i -> if t.slots.(i).status = `Dead then None else Some (Retire { slot = i }))
        (List.init t.cfg.workers Fun.id)
    in
    ({ t with stopped = true }, acts @ retire @ [ Stop ])
  else (t, acts)

let step t ~now ev =
  if t.stopped then (t, [])
  else
    finish_drain
      (match ev with
      | Client_line { client; line } ->
        if String.trim line = "" then (t, []) else client_line t client line
      | Client_closed { client } ->
        ( {
            t with
            pending =
              Int_map.map
                (fun p -> if p.client = Some client then { p with client = None } else p)
                t.pending;
          },
          [] )
      | Worker_line { slot; line } -> worker_line t ~now slot line
      | Worker_closed { slot } -> worker_closed t ~now slot
      | Spawned { slot; pid } ->
        let s = t.slots.(slot) in
        if s.status <> `Dead then (t, [])
        else (set_slot t slot { pid; status = `Booting; incarnation = s.incarnation + 1 }, [])
      | Spawn_failed { slot; reason } -> (spawn_failed t ~now slot reason, []))

let boot_status t =
  match t.boot_error with
  | Some e -> `Failed e
  | None -> if t.booted then `Up else `Booting

let stopped t = t.stopped
let inflight t = t.inflight
let pending_slots t = Int_map.fold (fun _ p acc -> p.on_slot :: acc) t.pending []

let slot_status t i = t.slots.(i).status
let budgets t = Array.to_list t.budget
let breaker_tripped t = Respawn.tripped t.breaker
let events t = t.events
