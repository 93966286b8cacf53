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

type t = {
  memory : Schedule_cache.t;
  disk : Disk_cache.t option;
  validate : bool;
  comm_opt : int option;  (* coalescing window of the comm rewrite, when on *)
  (* Request counters and per-stage latency histograms (the [stats]
     reply's latency section reads them too), owned per service so
     concurrent services never share series. *)
  metrics : Metrics.t;
  m_requests : Metrics.counter;
  m_errors : Metrics.counter;
  m_hits_memory : Metrics.counter;
  m_hits_disk : Metrics.counter;
  m_miss_memory : Metrics.counter;
  m_miss_disk : Metrics.counter;
  h_parse : Metrics.histogram;
  h_schedule : Metrics.histogram;
  h_schedule_incr : Metrics.histogram;
  h_validate : Metrics.histogram;
  h_total : Metrics.histogram;
  h_queue_wait : Metrics.histogram;
}

let create ?disk ?(validate = false) ?comm_opt () =
  let metrics = Metrics.create () in
  let tiered name help tier =
    Metrics.counter ~help ~labels:[ ("tier", tier) ] metrics name
  in
  let stage s =
    Metrics.histogram ~help:"Per-stage service latency in milliseconds"
      ~labels:[ ("stage", s) ] metrics "mimd_serve_stage_latency_ms"
  in
  {
    memory = Schedule_cache.create ~capacity:256 ();
    disk;
    validate;
    comm_opt;
    metrics;
    m_requests =
      Metrics.counter ~help:"Compile requests served" metrics "mimd_serve_requests_total";
    m_errors =
      Metrics.counter ~help:"Compile requests that returned an error" metrics
        "mimd_serve_errors_total";
    m_hits_memory = tiered "mimd_cache_hits_total" "Schedule-cache hits by tier" "memory";
    m_hits_disk = tiered "mimd_cache_hits_total" "Schedule-cache hits by tier" "disk";
    m_miss_memory =
      tiered "mimd_cache_misses_total" "Schedule-cache misses by tier" "memory";
    m_miss_disk = tiered "mimd_cache_misses_total" "Schedule-cache misses by tier" "disk";
    h_parse = stage "parse";
    h_schedule = stage "schedule";
    h_schedule_incr = stage "schedule_incr";
    h_validate = stage "validate";
    h_total = stage "total";
    h_queue_wait =
      Metrics.histogram ~help:"Pool queue wait in milliseconds" metrics
        "mimd_pool_queue_wait_ms";
  }

let now_ms () = Unix.gettimeofday () *. 1e3

let err kind fmt = Printf.ksprintf (fun message -> Error { kind; message }) fmt

(* ---------------------------------------------------------------- *)
(* The request path: parse -> tier-1 -> tier-2 -> compute+validate.   *)

let parse_loop source =
  match Mimd_loop_ir.Depend.of_source source with
  | Ok a -> Ok a.Mimd_loop_ir.Depend.graph
  | Error message -> Error { kind = Protocol.Parse; message }

let past deadline = match deadline with Some d -> Unix.gettimeofday () > d | None -> false

let compute t ~graph ~machine ~iterations ~validate =
  (* Prefix-sharing misses (same loop, different p / k / iteration
     count) reuse the prepared DDG + classification and pay only
     Cyclic-sched and downstream. *)
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
      Metrics.observe t.h_validate dt;
      match Mimd_check.Validate.error_of ~names:(Mimd_ddg.Graph.name graph) report with
      | Ok () -> Ok (full, outcome, dt)
      | Error m -> err Protocol.Validation "schedule rejected: %s" m
    end

let compile_graph t ?deadline ~validate ~graph ~machine ~iterations () =
  let started = now_ms () in
  let finish tier full =
    let makespan = Full_sched.parallel_time full in
    let sequential = Mimd_core.Metrics.sequential_time graph ~iterations in
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
          Metrics.observe
            (match outcome with
            | Incr.Cold -> t.h_schedule
            | Incr.Incremental -> t.h_schedule_incr)
            dt;
          (* Only proven schedules are persisted (when validation is
             on, which it was just above for this very entry). *)
          Schedule_cache.add t.memory ~key full;
          Option.iter (fun d -> Disk_cache.store d ~key full) t.disk;
          if past deadline then
            err Protocol.Deadline "deadline elapsed during compilation (result cached)"
          else Ok (finish Protocol.Computed full)))
  end

let compile t ?deadline ?validate ~loop ~machine ~iterations () =
  let validate = Option.value ~default:t.validate validate in
  let started = now_ms () in
  let record outcome =
    let elapsed = now_ms () -. started in
    Metrics.inc t.m_requests;
    Metrics.observe t.h_total elapsed;
    match outcome with Error _ -> Metrics.inc t.m_errors | Ok _ -> ()
  in
  let t0 = now_ms () in
  let parsed = Trace.span ~cat:"serve" "serve.parse" (fun () -> parse_loop loop) in
  Metrics.observe t.h_parse (now_ms () -. t0);
  let outcome =
    match parsed with
    | Error e -> Error e
    | Ok graph -> compile_graph t ?deadline ~validate ~graph ~machine ~iterations ()
  in
  record outcome;
  outcome

let compile_params t ?deadline (p : Protocol.compile_params) =
  let machine = Config.make ~processors:p.Protocol.processors ~comm_estimate:p.Protocol.k in
  compile t ?deadline ?validate:p.Protocol.validate ~loop:p.Protocol.loop ~machine
    ~iterations:p.Protocol.iterations ()

(* ---------------------------------------------------------------- *)
(* Stats                                                              *)

(* One stage's summary, read off its latency histogram: the service
   keeps no per-request samples, so quantiles are bucket estimates. *)
let latency_json h =
  match Metrics.histogram_count h with
  | 0 -> Json.Obj [ ("count", Json.Int 0) ]
  | count ->
    let q x = Json.Float (Metrics.quantile h x) in
    Json.Obj
      [
        ("count", Json.Int count);
        ("mean_ms", Json.Float (Metrics.histogram_sum h /. float_of_int count));
        ("p50_ms", q 0.5);
        ("p90_ms", q 0.9);
        ("p99_ms", q 0.99);
      ]

let stats_json ?pool t =
  (* Errors first: a request is counted before its error, so the pair
     read never shows more errors than requests. *)
  let errors = Metrics.counter_value t.m_errors in
  let requests = Metrics.counter_value t.m_requests in
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
      ("memory_cache", memory_json);
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
            ("parse", latency_json t.h_parse);
            ("schedule", latency_json t.h_schedule);
            ("schedule_incr", latency_json t.h_schedule_incr);
            ("validate", latency_json t.h_validate);
            ("total", latency_json t.h_total);
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
