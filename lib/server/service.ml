module Full_sched = Mimd_core.Full_sched
module Schedule_cache = Mimd_runtime.Schedule_cache
module Config = Mimd_machine.Config
module Metrics = Mimd_obs.Metrics
module Trace = Mimd_obs.Trace
module Incr = Mimd_tune.Incr

type error = { kind : Protocol.error_kind; message : string }

type outcome = {
  result : Protocol.compiled;
  full : Full_sched.t;
  graph : Mimd_ddg.Graph.t;
}

(* A remembered compile request: everything needed to re-run it at a
   different communication cost.  The retune hook walks these. *)
type hot_entry = {
  h_flat : Mimd_loop_ir.Ast.loop;
  h_graph : Mimd_ddg.Graph.t;
  h_processors : int;
  h_iterations : int;
  h_validate : bool;
}

let hot_capacity = 32

type t = {
  memory : Schedule_cache.t;
  disk : Disk_cache.t option;
  validate : bool;
  comm_opt : int option;  (* coalescing window of the comm rewrite, when on *)
  mutex : Mutex.t;
  (* the hot set: recently served requests, bounded FIFO — the
     entries a [retune] re-prices (guarded by [mutex]) *)
  hot : (string, hot_entry) Hashtbl.t;
  hot_order : string Queue.t;
  mutable requests : int;
  mutable errors : int;
  (* per-stage service latencies, milliseconds, newest first *)
  mutable parse_ms : float list;
  mutable schedule_ms : float list;
  mutable schedule_incr_ms : float list;
  mutable validate_ms : float list;
  mutable lower_ms : float list;
  mutable total_ms : float list;
  (* Prometheus view of the same numbers (plus cache-tier counters),
     owned per service so concurrent services never share series. *)
  metrics : Metrics.t;
  m_requests : Metrics.counter;
  m_errors : Metrics.counter;
  m_retunes : Metrics.counter;
  m_hits_memory : Metrics.counter;
  m_hits_disk : Metrics.counter;
  m_miss_memory : Metrics.counter;
  m_miss_disk : Metrics.counter;
  h_parse : Metrics.histogram;
  h_schedule : Metrics.histogram;
  h_schedule_incr : Metrics.histogram;
  h_validate : Metrics.histogram;
  h_lower : Metrics.histogram;
  h_total : Metrics.histogram;
  h_queue_wait : Metrics.histogram;
}

let create ?(memory_capacity = 256) ?disk ?(validate = false) ?comm_opt () =
  let metrics = Metrics.create () in
  let tiered name help tier =
    Metrics.counter ~help ~labels:[ ("tier", tier) ] metrics name
  in
  let stage s =
    Metrics.histogram ~help:"Per-stage service latency in milliseconds"
      ~labels:[ ("stage", s) ] metrics "mimd_serve_stage_latency_ms"
  in
  {
    memory = Schedule_cache.create ~capacity:memory_capacity ();
    disk;
    validate;
    comm_opt;
    mutex = Mutex.create ();
    hot = Hashtbl.create hot_capacity;
    hot_order = Queue.create ();
    requests = 0;
    errors = 0;
    parse_ms = [];
    schedule_ms = [];
    schedule_incr_ms = [];
    validate_ms = [];
    lower_ms = [];
    total_ms = [];
    metrics;
    m_requests =
      Metrics.counter ~help:"Compile requests served" metrics "mimd_serve_requests_total";
    m_errors =
      Metrics.counter ~help:"Compile requests that returned an error" metrics
        "mimd_serve_errors_total";
    m_retunes =
      Metrics.counter ~help:"Retune requests served (hot entries re-priced)" metrics
        "mimd_serve_retunes_total";
    m_hits_memory = tiered "mimd_cache_hits_total" "Schedule-cache hits by tier" "memory";
    m_hits_disk = tiered "mimd_cache_hits_total" "Schedule-cache hits by tier" "disk";
    m_miss_memory =
      tiered "mimd_cache_misses_total" "Schedule-cache misses by tier" "memory";
    m_miss_disk = tiered "mimd_cache_misses_total" "Schedule-cache misses by tier" "disk";
    h_parse = stage "parse";
    h_schedule = stage "schedule";
    h_schedule_incr = stage "schedule_incr";
    h_validate = stage "validate";
    h_lower = stage "lower";
    h_total = stage "total";
    h_queue_wait =
      Metrics.histogram ~help:"Pool queue wait in milliseconds" metrics
        "mimd_pool_queue_wait_ms";
  }

let validate_default t = t.validate

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let now_ms () = Unix.gettimeofday () *. 1e3

let err kind fmt = Printf.ksprintf (fun message -> Error { kind; message }) fmt

(* ---------------------------------------------------------------- *)
(* The request path: parse -> tier-1 -> tier-2 -> compute+validate.   *)

let parse_loop source =
  match Mimd_loop_ir.Parser.parse source with
  | exception Mimd_loop_ir.Parser.Error m -> err Protocol.Parse "parse error: %s" m
  | exception Mimd_loop_ir.Lexer.Error { position; message } ->
    err Protocol.Parse "lex error at %d: %s" position message
  | loop ->
    let flat =
      if Mimd_loop_ir.Ast.is_flat loop then loop else Mimd_loop_ir.If_convert.run loop
    in
    Ok (flat, (Mimd_loop_ir.Depend.analyze flat).Mimd_loop_ir.Depend.graph)

let past deadline = match deadline with Some d -> Unix.gettimeofday () > d | None -> false

let compute t ~graph ~machine ~iterations ~validate =
  (* Prefix-sharing misses (same loop, different k / matrix /
     iteration count — what the drift loop issues) reuse the prepared
     DDG + classification and pay only Cyclic-sched and downstream. *)
  match Incr.compile Incr.global ~graph ~machine ~iterations () with
  | exception Mimd_core.Cyclic_sched.No_pattern m ->
    err Protocol.Schedule "no pattern: %s" m
  | exception Invalid_argument m -> err Protocol.Schedule "%s" m
  | full, outcome ->
    if not validate then Ok (full, outcome, 0.0)
    else begin
      let t0 = now_ms () in
      let report = Mimd_check.Validate.full full in
      let dt = now_ms () -. t0 in
      with_lock t (fun () -> t.validate_ms <- dt :: t.validate_ms);
      Metrics.observe t.h_validate dt;
      match Mimd_check.Validate.error_of ~names:(Mimd_ddg.Graph.name graph) report with
      | Ok () -> Ok (full, outcome, dt)
      | Error m -> err Protocol.Validation "schedule rejected: %s" m
    end

(* Pre-lower the fresh schedule's generated program into the cache's
   lowered tier, so the first execution client to ask starts warm.
   Best effort: a loop that the runtime cannot execute (distances
   beyond {0, 1} after unwinding) simply skips the step — the served
   schedule itself is unaffected. *)
let prelower t ~key ~flat ~full =
  if Mimd_ddg.Graph.node_count (Mimd_core.Schedule.graph full.Full_sched.schedule)
     = List.length (Mimd_loop_ir.Ast.assignments flat)
  then begin
    let t0 = now_ms () in
    match
      let program =
        let p = Mimd_codegen.From_schedule.run full.Full_sched.schedule in
        match t.comm_opt with
        | None -> p
        | Some window -> fst (Mimd_codegen.Comm_opt.run ~window p)
      in
      Mimd_runtime.Lower.run ~loop:flat ~program ()
    with
    | exception _ -> ()
    | lowered ->
      let lkey =
        Schedule_cache.lowered_key ?comm_window:t.comm_opt ~fingerprint:key ~loop:flat ()
      in
      Schedule_cache.add_lowered t.memory ~key:lkey lowered;
      let dt = now_ms () -. t0 in
      with_lock t (fun () -> t.lower_ms <- dt :: t.lower_ms);
      Metrics.observe t.h_lower dt
  end

let compile_graph t ?deadline ?flat ~validate ~graph ~machine ~iterations () =
  let started = now_ms () in
  let finish tier full =
    let makespan = Full_sched.parallel_time full in
    let sequential = Mimd_doacross.Sequential.time graph ~iterations in
    (* The comm rewrite is priced per reply (cheap next to scheduling)
       rather than cached: the cache keys schedules, not programs. *)
    let comm =
      match t.comm_opt with
      | None -> None
      | Some window -> (
        match
          Mimd_codegen.Comm_opt.run ~window
            (Mimd_codegen.From_schedule.run full.Full_sched.schedule)
        with
        | exception _ -> None
        | _, stats ->
          Some
            ( stats.Mimd_codegen.Comm_opt.messages_before,
              stats.Mimd_codegen.Comm_opt.messages_after ))
    in
    let elapsed_ms = now_ms () -. started in
    {
      result =
        {
          Protocol.tier;
          makespan;
          processors = Full_sched.total_processors full;
          pattern = Option.is_some full.Full_sched.pattern;
          folded = full.Full_sched.folded;
          sequential;
          percentage_parallelism =
            Mimd_core.Metrics.percentage_parallelism ~sequential ~parallel:makespan;
          elapsed_ms;
          comm;
        };
      full;
      graph;
    }
  in
  if past deadline then err Protocol.Deadline "deadline elapsed before compilation began"
  else begin
    let key = Schedule_cache.fingerprint ~graph ~machine ~iterations () in
    match Schedule_cache.find t.memory ~key with
    | Some full ->
      Metrics.inc t.m_hits_memory;
      Trace.instant ~args:[ ("tier", "memory") ] "serve.cache";
      Ok (finish Protocol.Memory_hit full)
    | None -> (
      Metrics.inc t.m_miss_memory;
      let from_disk = Option.bind t.disk (fun d -> Disk_cache.find d ~key) in
      match from_disk with
      | Some full ->
        Metrics.inc t.m_hits_disk;
        Trace.instant ~args:[ ("tier", "disk") ] "serve.cache";
        (* Promote to tier 1 so the next hit skips the disk. *)
        Schedule_cache.add t.memory ~key full;
        Ok (finish Protocol.Disk_hit full)
      | None -> (
        if Option.is_some t.disk then Metrics.inc t.m_miss_disk;
        Trace.instant ~args:[ ("tier", "computed") ] "serve.cache";
        let t0 = now_ms () in
        match compute t ~graph ~machine ~iterations ~validate with
        | Error e -> Error e
        | Ok (full, outcome, validate_ms) ->
          let dt = now_ms () -. t0 -. validate_ms in
          Trace.instant ~args:[ ("prep", Incr.outcome_name outcome) ] "serve.prep";
          (match outcome with
          | Incr.Cold ->
            with_lock t (fun () -> t.schedule_ms <- dt :: t.schedule_ms);
            Metrics.observe t.h_schedule dt
          | Incr.Incremental ->
            with_lock t (fun () -> t.schedule_incr_ms <- dt :: t.schedule_incr_ms);
            Metrics.observe t.h_schedule_incr dt);
          (* Only proven schedules are persisted (when validation is
             on, which it was just above for this very entry). *)
          Schedule_cache.add t.memory ~key full;
          Option.iter (fun d -> Disk_cache.store d ~key full) t.disk;
          Option.iter (fun flat -> prelower t ~key ~flat ~full) flat;
          if past deadline then
            err Protocol.Deadline "deadline elapsed during compilation (result cached)"
          else Ok (finish Protocol.Computed full)))
  end

(* Remember a served request in the hot set.  Keyed independently of
   the machine's pricing, so re-serving one loop at different k keeps
   one slot; bounded FIFO, oldest out. *)
let record_hot t ~flat ~graph ~machine ~iterations ~validate =
  let key =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string
            ( Format.asprintf "%a" Mimd_loop_ir.Ast.pp_loop flat,
              machine.Config.processors,
              iterations )
            []))
  in
  with_lock t (fun () ->
      if not (Hashtbl.mem t.hot key) then begin
        Hashtbl.replace t.hot key
          {
            h_flat = flat;
            h_graph = graph;
            h_processors = machine.Config.processors;
            h_iterations = iterations;
            h_validate = validate;
          };
        Queue.push key t.hot_order;
        if Queue.length t.hot_order > hot_capacity then
          Hashtbl.remove t.hot (Queue.pop t.hot_order)
      end)

(* The closed-loop rescheduling hook: re-price every hot entry at the
   measured communication cost [k].  Entries whose schedule at that
   pricing is already cached cost a lookup; the rest recompile through
   the incremental path (same DDG prefix, new machine) and land in
   both cache tiers plus the lowered tier — so after a retune, traffic
   asking for the measured k is served warm.  Sent by the router's SLO
   watcher past the drift threshold, or by an operator. *)
let retune t ~k =
  Trace.span ~cat:"serve" ~args:[ ("k", string_of_int k) ] "serve.retune"
  @@ fun () ->
  let snapshot =
    with_lock t (fun () -> Hashtbl.fold (fun _ e acc -> e :: acc) t.hot [])
  in
  let recompiled = ref 0 in
  List.iter
    (fun e ->
      let machine = Config.make ~processors:e.h_processors ~comm_estimate:k in
      match
        compile_graph t ~flat:e.h_flat ~validate:e.h_validate ~graph:e.h_graph
          ~machine ~iterations:e.h_iterations ()
      with
      | Ok o when o.result.Protocol.tier = Protocol.Computed -> incr recompiled
      | Ok _ | Error _ -> ())
    snapshot;
  Metrics.inc t.m_retunes;
  { Protocol.k; entries = List.length snapshot; recompiled = !recompiled }

let compile t ?deadline ?validate ~loop ~machine ~iterations () =
  let validate = Option.value ~default:t.validate validate in
  let started = now_ms () in
  let record outcome =
    let elapsed = now_ms () -. started in
    with_lock t (fun () ->
        t.requests <- t.requests + 1;
        t.total_ms <- elapsed :: t.total_ms;
        match outcome with Error _ -> t.errors <- t.errors + 1 | Ok _ -> ());
    Metrics.inc t.m_requests;
    Metrics.observe t.h_total elapsed;
    match outcome with Error _ -> Metrics.inc t.m_errors | Ok _ -> ()
  in
  let t0 = now_ms () in
  let parsed = Trace.span ~cat:"serve" "serve.parse" (fun () -> parse_loop loop) in
  let parse_dt = now_ms () -. t0 in
  with_lock t (fun () -> t.parse_ms <- parse_dt :: t.parse_ms);
  Metrics.observe t.h_parse parse_dt;
  let outcome =
    match parsed with
    | Error e -> Error e
    | Ok (flat, graph) ->
      let r = compile_graph t ?deadline ~flat ~validate ~graph ~machine ~iterations () in
      (match r with
      | Ok _ -> record_hot t ~flat ~graph ~machine ~iterations ~validate
      | Error _ -> ());
      r
  in
  record outcome;
  outcome

let compile_params t ?deadline (p : Protocol.compile_params) =
  let machine = Config.make ~processors:p.Protocol.processors ~comm_estimate:p.Protocol.k in
  compile t ?deadline ?validate:p.Protocol.validate ~loop:p.Protocol.loop ~machine
    ~iterations:p.Protocol.iterations ()

(* ---------------------------------------------------------------- *)
(* Stats                                                              *)

let latency_json samples =
  match samples with
  | [] -> Json.Obj [ ("count", Json.Int 0) ]
  | _ ->
    let module S = Mimd_util.Stats in
    Json.Obj
      [
        ("count", Json.Int (List.length samples));
        ("mean_ms", Json.Float (S.mean samples));
        ("p50_ms", Json.Float (S.percentile 50.0 samples));
        ("p90_ms", Json.Float (S.percentile 90.0 samples));
        ("p99_ms", Json.Float (S.percentile 99.0 samples));
        ("max_ms", Json.Float (S.maximum samples));
        ( "histogram",
          Json.List
            (List.map
               (fun (lo, hi, n) ->
                 Json.List [ Json.Float lo; Json.Float hi; Json.Int n ])
               (S.histogram ~bins:8 samples)) );
      ]

let stats_json ?pool t =
  let ( requests,
        errors,
        parse_ms,
        schedule_ms,
        schedule_incr_ms,
        validate_ms,
        lower_ms,
        total_ms ) =
    with_lock t (fun () ->
        ( t.requests,
          t.errors,
          t.parse_ms,
          t.schedule_ms,
          t.schedule_incr_ms,
          t.validate_ms,
          t.lower_ms,
          t.total_ms ))
  in
  let mem = Schedule_cache.stats t.memory in
  let memory_json =
    Json.Obj
      [
        ("hits", Json.Int mem.Schedule_cache.hits);
        ("misses", Json.Int mem.Schedule_cache.misses);
        ("entries", Json.Int mem.Schedule_cache.entries);
        ("evictions", Json.Int mem.Schedule_cache.evictions);
        ("capacity", Json.Int (Schedule_cache.capacity t.memory));
      ]
  in
  let lowered_json =
    let s = Schedule_cache.lowered_stats t.memory in
    Json.Obj
      [
        ("hits", Json.Int s.Schedule_cache.hits);
        ("misses", Json.Int s.Schedule_cache.misses);
        ("entries", Json.Int s.Schedule_cache.entries);
      ]
  in
  let disk_json =
    match t.disk with
    | None -> Json.Obj [ ("enabled", Json.Bool false) ]
    | Some d ->
      let s = Disk_cache.stats d in
      Json.Obj
        [
          ("enabled", Json.Bool true);
          ("dir", Json.String (Disk_cache.dir d));
          ("hits", Json.Int s.Disk_cache.hits);
          ("misses", Json.Int s.Disk_cache.misses);
          ("stores", Json.Int s.Disk_cache.stores);
          ("store_errors", Json.Int s.Disk_cache.store_errors);
        ]
  in
  let pool_json =
    match pool with
    | None -> Json.Obj [ ("enabled", Json.Bool false) ]
    | Some p ->
      Json.Obj
        [
          ("enabled", Json.Bool true);
          ("jobs", Json.Int (Pool.jobs p));
          ("queue_depth", Json.Int (Pool.queue_depth p));
          ("max_queue_depth", Json.Int (Pool.max_depth_seen p));
          ("executed", Json.Int (Pool.executed p));
        ]
  in
  Json.Obj
    [
      ("requests", Json.Int requests);
      ("errors", Json.Int errors);
      ("validate", Json.Bool t.validate);
      ( "hot_entries",
        Json.Int (with_lock t (fun () -> Hashtbl.length t.hot)) );
      ("retunes", Json.Int (Metrics.counter_value t.m_retunes));
      ("memory_cache", memory_json);
      ("lowered_cache", lowered_json);
      ("disk_cache", disk_json);
      ( "incr_prep",
        (let s = Incr.stats Incr.global in
         Json.Obj
           [
             ("hits", Json.Int s.Incr.hits);
             ("misses", Json.Int s.Incr.misses);
             ("entries", Json.Int s.Incr.entries);
           ]) );
      ("pool", pool_json);
      ( "latency",
        Json.Obj
          [
            ("parse", latency_json parse_ms);
            ("schedule", latency_json schedule_ms);
            ("schedule_incr", latency_json schedule_incr_ms);
            ("validate", latency_json validate_ms);
            ("lower", latency_json lower_ms);
            ("total", latency_json total_ms);
          ] );
    ]

let memory_stats t = Schedule_cache.stats t.memory
let disk_stats t = Option.map Disk_cache.stats t.disk

(* ---------------------------------------------------------------- *)
(* Prometheus                                                         *)

let metrics t = t.metrics
let observe_queue_wait t ms = Metrics.observe t.h_queue_wait ms

let metrics_text ?pool t =
  (* Gauges sourced from structures that keep their own counts are
     refreshed at render time, so one registry stays the single
     exposition point without mirroring every increment. *)
  let g name help v = Metrics.set (Metrics.gauge ~help t.metrics name) v in
  let mem = Schedule_cache.stats t.memory in
  g "mimd_cache_memory_entries" "Entries in the in-memory LRU"
    (float_of_int mem.Schedule_cache.entries);
  g "mimd_cache_memory_evictions" "Evictions from the in-memory LRU"
    (float_of_int mem.Schedule_cache.evictions);
  (match t.disk with
  | None -> ()
  | Some d ->
    let s = Disk_cache.stats d in
    g "mimd_cache_disk_stores" "Schedules persisted to the disk tier"
      (float_of_int s.Disk_cache.stores));
  (let s = Incr.stats Incr.global in
   g "mimd_tune_prep_hits" "Prepared-prefix reuses (incremental recompiles)"
     (float_of_int s.Incr.hits);
   g "mimd_tune_prep_misses" "Prepared-prefix misses (cold compiles)"
     (float_of_int s.Incr.misses);
   g "mimd_tune_prep_entries" "Prepared prefixes cached" (float_of_int s.Incr.entries));
  (match pool with
  | None -> ()
  | Some p ->
    g "mimd_pool_jobs" "Worker domains in the pool" (float_of_int (Pool.jobs p));
    g "mimd_pool_queue_depth" "Jobs waiting in the pool queue"
      (float_of_int (Pool.queue_depth p));
    g "mimd_pool_max_queue_depth" "High-water mark of the pool queue"
      (float_of_int (Pool.max_depth_seen p));
    g "mimd_pool_executed_total" "Jobs the pool has executed"
      (float_of_int (Pool.executed p)));
  Metrics.render t.metrics
