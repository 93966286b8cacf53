(* The observability layer: span nesting and export shape, the
   Chrome-trace JSON round-trip through the server's own parser, the
   Prometheus registry, and the contract that disabled tracing costs
   nothing — no allocation on the fast path. *)

open Helpers

module Trace = Mimd_obs.Trace
module Metrics = Mimd_obs.Metrics
module Clock = Mimd_obs.Clock
module Json = Mimd_server.Json

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let field name ev =
  match Json.member name ev with
  | Some v -> v
  | None -> Alcotest.failf "event lacks %S: %s" name (Json.to_string ev)

let str name ev =
  match Json.to_string_opt (field name ev) with
  | Some s -> s
  | None -> Alcotest.failf "field %S is not a string" name

let arg name ev = str name (field "args" ev)

let named n evs = List.filter (fun ev -> str "name" ev = n) evs

(* ---------------------------------------------------------------- *)
(* Clock                                                             *)

let test_clock_monotonic () =
  let a = Clock.now_ns () in
  let b = Clock.now_ns () in
  check_bool "clock does not go backwards" true (b >= a);
  check_bool "ns_to_us scales" true (Float.abs (Clock.ns_to_us 1_500 -. 1.5) < 1e-9);
  check_bool "ns_to_ms scales" true (Float.abs (Clock.ns_to_ms 2_000_000 -. 2.0) < 1e-9)

(* ---------------------------------------------------------------- *)
(* Spans                                                             *)

let test_span_disabled_is_transparent () =
  Trace.clear ();
  check_bool "tracing starts off" false (Trace.is_enabled ());
  check_int "span returns f's value" 41 (Trace.span "t" (fun () -> 41));
  check_int "no event recorded" 0 (List.length (completes (export_events ())))

let test_span_nesting () =
  with_tracing @@ fun () ->
  let v =
    Trace.span "outer" (fun () ->
        Trace.span "inner" (fun () -> 7) + Trace.span "inner" (fun () -> 1))
  in
  check_int "nested spans compute" 8 v;
  let evs = completes (export_events ()) in
  check_int "three complete events" 3 (List.length evs);
  let outer = List.nth (named "outer" evs) 0 in
  check_string "outer is top-level" "0" (arg "parent_id" outer);
  let outer_id = arg "span_id" outer in
  List.iter
    (fun inner -> check_string "inner's parent is outer" outer_id (arg "parent_id" inner))
    (named "inner" evs);
  (* Timestamps are rebased to the earliest event and ordered. *)
  let ts ev =
    match Json.to_float_opt (field "ts" ev) with
    | Some f -> f
    | None -> Alcotest.fail "ts is not a number"
  in
  let sorted = List.sort (fun a b -> compare (ts a) (ts b)) evs in
  check_bool "first event starts at 0" true (Float.abs (ts (List.hd sorted)) < 1e-9)

let test_span_records_on_exception () =
  with_tracing @@ fun () ->
  (try Trace.span "boom" (fun () -> failwith "x") with Failure _ -> ());
  check_int "span recorded despite raise" 1
    (List.length (named "boom" (completes (export_events ()))));
  (* The stack was popped: the next span is top-level again. *)
  Trace.span "after" (fun () -> ());
  let after = List.nth (named "after" (completes (export_events ()))) 0 in
  check_string "stack popped on raise" "0" (arg "parent_id" after)

let test_spans_across_domains () =
  with_tracing @@ fun () ->
  let worker name () =
    Trace.set_thread_name name;
    Trace.span "work" (fun () -> Trace.span "step" (fun () -> ()))
  in
  let d1 = Domain.spawn (worker "PE0") in
  let d2 = Domain.spawn (worker "PE1") in
  Domain.join d1;
  Domain.join d2;
  let evs = export_events () in
  let works = named "work" (completes evs) in
  check_int "one work span per domain" 2 (List.length works);
  let tid ev =
    match Json.to_int_opt (field "tid" ev) with
    | Some i -> i
    | None -> Alcotest.fail "tid is not an int"
  in
  check_bool "domains land on distinct tracks" true
    (tid (List.nth works 0) <> tid (List.nth works 1));
  (* Nesting is per-domain: each step's parent is its own domain's
     work span, and thread names label both tracks. *)
  List.iter
    (fun step ->
      let parent = arg "parent_id" step in
      let owner =
        List.find (fun w -> arg "span_id" w = parent && tid w = tid step) works
      in
      ignore owner)
    (named "step" (completes evs));
  let thread_names =
    List.filter (fun ev -> str "name" ev = "thread_name") evs |> List.map (arg "name")
  in
  List.iter
    (fun n -> check_bool (n ^ " track labelled") true (List.mem n thread_names))
    [ "PE0"; "PE1" ]

let test_record_and_instant () =
  with_tracing @@ fun () ->
  let t0 = Clock.now_ns () in
  Trace.record ~name:"ext" ~start_ns:t0 ~end_ns:(t0 + 5_000) ();
  Trace.instant "mark";
  let evs = export_events () in
  check_int "record lands as complete event" 1 (List.length (named "ext" (completes evs)));
  let instants =
    List.filter (fun ev -> Json.member "ph" ev = Some (Json.String "i")) evs
  in
  check_int "instant lands as ph:i" 1 (List.length instants)

let test_export_required_fields () =
  with_tracing @@ fun () ->
  Trace.span "shape" (fun () -> ());
  List.iter
    (fun ev ->
      ignore (str "ph" ev);
      ignore (field "pid" ev);
      ignore (field "tid" ev);
      ignore (str "name" ev);
      if str "ph" ev = "X" then begin
        ignore (field "ts" ev);
        ignore (field "dur" ev)
      end)
    (export_events ())

let test_clear_drops_events () =
  with_tracing @@ fun () ->
  Trace.span "gone" (fun () -> ());
  Trace.clear ();
  check_int "clear empties the buffers" 0 (List.length (completes (export_events ())));
  check_int "nothing was dropped" 0 (Trace.dropped ())

(* The whole point of the guard: with tracing off, instrumented hot
   paths must not allocate.  [minor_words] counts words bumped on the
   minor heap; the closure is hoisted so the loop body is exactly the
   guarded call. *)
let test_disabled_path_does_not_allocate () =
  Trace.disable ();
  let f = fun () -> () in
  (* Warm up any one-time lazies (DLS init etc.). *)
  Trace.span "warm" f;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    Trace.span "hot" f
  done;
  let allocated = Gc.minor_words () -. before in
  if allocated > 100.0 then
    Alcotest.failf "disabled spans allocated %.0f minor words over 10k calls" allocated;
  (* ... and costs next to nothing: at most 100 ns a call (a few ns in
     practice).  The median of five batches, so one preemption cannot
     fail the suite. *)
  let calls = 200_000 in
  let batch () =
    let t0 = Clock.now_ns () in
    for _ = 1 to calls do
      Trace.span "hot" f
    done;
    float_of_int (Clock.now_ns () - t0) /. float_of_int calls
  in
  let per_call = Array.init 5 (fun _ -> batch ()) in
  Array.sort compare per_call;
  if per_call.(2) > 100.0 then
    Alcotest.failf "a disabled span costs %.1f ns per call (median of 5 batches), over 100 ns"
      per_call.(2)

(* ---------------------------------------------------------------- *)
(* Metrics                                                           *)

let test_counter_and_gauge () =
  let r = Metrics.create () in
  let c = Metrics.counter ~help:"h" r "t_requests_total" in
  Metrics.inc c;
  Metrics.inc ~by:4 c;
  check_int "counter accumulates" 5 (Metrics.counter_value c);
  let c' = Metrics.counter r "t_requests_total" in
  Metrics.inc c';
  check_int "re-registration is the same instrument" 6 (Metrics.counter_value c);
  let g = Metrics.gauge r "t_depth" in
  Metrics.set g 2.5;
  Metrics.add g 0.5;
  check_bool "gauge adds" true (Float.abs (Metrics.gauge_value g -. 3.0) < 1e-9);
  let text = Metrics.render r in
  check_bool "counter rendered" true
    (String.length text > 0
    && contains ~needle:"t_requests_total 6" text);
  check_bool "TYPE line present" true
    (contains ~needle:"# TYPE t_requests_total counter" text)

let test_kind_conflict () =
  let r = Metrics.create () in
  ignore (Metrics.counter r "t_name");
  (match Metrics.gauge r "t_name" with
  | _ -> Alcotest.fail "re-registering a counter as a gauge must raise"
  | exception Metrics.Conflict _ -> ());
  ignore (Metrics.histogram ~buckets:[| 1.0; 2.0 |] r "t_h");
  match Metrics.histogram ~buckets:[| 1.0; 3.0 |] r "t_h" with
  | _ -> Alcotest.fail "re-registering with different buckets must raise"
  | exception Metrics.Conflict _ -> ()

let test_histogram_render_cumulative () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0 |] r "t_lat" in
  List.iter (Metrics.observe h) [ 0.5; 0.7; 5.0; 99.0 ];
  check_int "count" 4 (Metrics.histogram_count h);
  check_bool "sum" true (Float.abs (Metrics.histogram_sum h -. 105.2) < 1e-9);
  let text = Metrics.render r in
  List.iter
    (fun needle ->
      check_bool (needle ^ " present") true (contains ~needle text))
    [
      "t_lat_bucket{le=\"1\"} 2";
      "t_lat_bucket{le=\"10\"} 3";
      "t_lat_bucket{le=\"+Inf\"} 4";
      "t_lat_sum 105.2";
      "t_lat_count 4";
    ]

let test_histogram_quantile () =
  let r = Metrics.create () in
  let h = Metrics.histogram ~buckets:[| 10.0; 20.0; 40.0 |] r "t_q" in
  check_bool "empty quantile is nan" true (Float.is_nan (Metrics.quantile h 0.5));
  (* 10 observations in (10, 20]: the median interpolates inside it. *)
  for _ = 1 to 10 do
    Metrics.observe h 15.0
  done;
  let q50 = Metrics.quantile h 0.5 in
  check_bool "q50 inside the crossing bucket" true (q50 >= 10.0 && q50 <= 20.0);
  Metrics.observe h 1000.0;
  check_bool "overflow clamps to last bound" true
    (Float.abs (Metrics.quantile h 1.0 -. 40.0) < 1e-9)

let test_label_escaping () =
  check_string "backslash" "a\\\\b" (Metrics.escape_label "a\\b");
  check_string "quote" "say \\\"hi\\\"" (Metrics.escape_label "say \"hi\"");
  check_string "newline" "l1\\nl2" (Metrics.escape_label "l1\nl2");
  let r = Metrics.create () in
  ignore (Metrics.counter ~labels:[ ("path", "a\\b\"c\nd") ] r "t_esc");
  let text = Metrics.render r in
  check_bool "rendered label is escaped" true
    (contains ~needle:"t_esc{path=\"a\\\\b\\\"c\\nd\"} 0" text)

let test_labelled_series_share_family () =
  let r = Metrics.create () in
  let a = Metrics.counter ~help:"by tier" ~labels:[ ("tier", "memory") ] r "t_hits" in
  let b = Metrics.counter ~labels:[ ("tier", "disk") ] r "t_hits" in
  Metrics.inc a;
  Metrics.inc ~by:2 b;
  let text = Metrics.render r in
  check_bool "memory series" true
    (contains ~needle:"t_hits{tier=\"memory\"} 1" text);
  check_bool "disk series" true
    (contains ~needle:"t_hits{tier=\"disk\"} 2" text);
  (* One family header, not one per series. *)
  let count_type =
    let rec go i acc =
      match String.index_from_opt text i '#' with
      | None -> acc
      | Some j ->
        let is_type =
          j + 6 <= String.length text && String.sub text j 6 = "# TYPE"
        in
        go (j + 1) (if is_type then acc + 1 else acc)
    in
    go 0 0
  in
  check_int "exactly one TYPE header" 1 count_type

let test_metrics_concurrent_increments () =
  let r = Metrics.create () in
  let c = Metrics.counter r "t_par" in
  let h = Metrics.histogram ~buckets:[| 0.5 |] r "t_par_h" in
  let n = 4 and per = 10_000 in
  let domains =
    List.init n (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per do
              Metrics.inc c;
              Metrics.observe h 1.0
            done))
  in
  List.iter Domain.join domains;
  check_int "no lost counter increments" (n * per) (Metrics.counter_value c);
  check_int "no lost observations" (n * per) (Metrics.histogram_count h)

(* ---------------------------------------------------------------- *)
(* The instrumented pipeline end-to-end                               *)

let test_compile_emits_stage_spans () =
  with_tracing @@ fun () ->
  let g = Mimd_workloads.Fig1.graph () in
  let full =
    Mimd_core.Full_sched.run ~graph:g ~machine:(machine ()) ~iterations:60 ()
  in
  ignore (Mimd_codegen.From_schedule.run full.Mimd_core.Full_sched.schedule);
  let names =
    List.sort_uniq compare (List.map (str "name") (completes (export_events ())))
  in
  let stages = List.filter (fun n -> String.length n > 8 && String.sub n 0 8 = "compile.") names in
  check_bool
    (Printf.sprintf "at least 5 compile stages traced (got %s)"
       (String.concat ", " stages))
    true
    (List.length stages >= 5)

let test_service_metrics_text () =
  let svc = Mimd_server.Service.create ~validate:false () in
  let m = machine () in
  let loop = "for i = 1 to n { X[i] = X[i-1] + Y[i]; }" in
  (match Mimd_server.Service.compile svc ~loop ~machine:m ~iterations:50 () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "compile failed: %s" e.Mimd_server.Service.message);
  (match Mimd_server.Service.compile svc ~loop ~machine:m ~iterations:50 () with
  | Ok o ->
    check_string "second compile hits memory" "memory"
      (Mimd_server.Protocol.tier_name o.Mimd_server.Service.result.Mimd_server.Protocol.tier)
  | Error e -> Alcotest.failf "compile failed: %s" e.Mimd_server.Service.message);
  Mimd_server.Service.observe_queue_wait svc 0.25;
  let text = Mimd_server.Service.metrics_text svc in
  List.iter
    (fun needle ->
      check_bool (needle ^ " present") true (contains ~needle text))
    [
      "mimd_serve_requests_total 2";
      "mimd_serve_errors_total 0";
      "mimd_cache_hits_total{tier=\"memory\"} 1";
      "mimd_cache_misses_total{tier=\"memory\"} 1";
      "mimd_serve_stage_latency_ms_bucket{stage=\"total\",le=\"+Inf\"} 2";
      "mimd_pool_queue_wait_ms_count 1";
      "mimd_cache_memory_entries 1";
    ];
  (* Two services never share series. *)
  let other = Mimd_server.Service.create () in
  check_bool "fresh service starts at zero" true
    (contains ~needle:"mimd_serve_requests_total 0"
       (Mimd_server.Service.metrics_text other))

(* ---------------------------------------------------------------- *)
(* Streaming sink + cross-process capture                             *)

let test_streaming_sink () =
  let path = Filename.temp_file "mimd-sink" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) @@ fun () ->
  with_tracing @@ fun () ->
  Trace.set_sink ~threshold:4 path;
  Fun.protect ~finally:Trace.close_sink @@ fun () ->
  check_bool "sink path exposed" true (Trace.sink_path () = Some path);
  check_bool "double open rejected" true
    (match Trace.set_sink path with
    | () -> false
    | exception Invalid_argument _ -> true);
  for i = 1 to 20 do
    Trace.span (Printf.sprintf "s%d" i) (fun () -> ())
  done;
  check_bool "threshold flushed mid-run" true (Trace.sink_flushed () > 0);
  (* mid-stream the file is the Chrome array format with the closing
     bracket still pending — the viewer tolerates that as-is, and
     appending the bracket must yield well-formed JSON *)
  let mid = In_channel.with_open_text path In_channel.input_all in
  (match Json.parse (mid ^ "]}") with
  | Json.Obj _ -> ()
  | _ -> Alcotest.fail "repaired mid-stream file is not an object"
  | exception Json.Parse_error e -> Alcotest.failf "mid-stream + ]} unparseable: %s" e);
  Trace.span "tail-span" (fun () -> ());
  Trace.close_sink ();
  check_bool "sink closed" true (Trace.sink_path () = None);
  let doc = In_channel.with_open_text path In_channel.input_all in
  check_bool "final flush caught the tail" true (contains ~needle:"tail-span" doc);
  (match Json.parse doc with
  | doc' -> begin
    match Json.member "traceEvents" doc' with
    | Some (Json.List evs) ->
      check_bool "all spans reached the file" true (List.length evs >= 21)
    | _ -> Alcotest.fail "closed file has no traceEvents"
  end
  | exception Json.Parse_error e -> Alcotest.failf "closed file unparseable: %s" e);
  (* flushed events left the buffers: sink and export are
     alternatives, never duplicates *)
  check_bool "export no longer holds drained events" false
    (contains ~needle:"tail-span" (Trace.export ()))

let test_capture_absorb () =
  with_tracing @@ fun () ->
  Trace.span "shipped" (fun () -> ());
  let captured = Trace.capture () in
  Trace.clear ();
  (* what a parent does with a child's report *)
  Trace.absorb ~tid_offset:2000 captured;
  let evs = export_events () in
  let shipped =
    List.filter
      (fun e ->
        match Json.member "name" e with Some (Json.String "shipped") -> true | _ -> false)
      evs
  in
  check_int "absorbed span exported once" 1 (List.length shipped);
  List.iter
    (fun e ->
      match Option.bind (Json.member "tid" e) Json.to_int_opt with
      | Some tid -> check_bool "tid offset applied" true (tid >= 2000)
      | None -> Alcotest.fail "absorbed event has no tid")
    shipped;
  (* clear drops absorbed events too *)
  Trace.absorb ~tid_offset:3000 captured;
  Trace.clear ();
  check_bool "clear drops absorbed" true
    (not (contains ~needle:"shipped" (Trace.export ())))

let suite =
  [
    Alcotest.test_case "clock: monotonic, unit conversions" `Quick test_clock_monotonic;
    Alcotest.test_case "trace: disabled span is transparent" `Quick
      test_span_disabled_is_transparent;
    Alcotest.test_case "trace: spans nest, parent ids in args" `Quick test_span_nesting;
    Alcotest.test_case "trace: span recorded on exception" `Quick
      test_span_records_on_exception;
    Alcotest.test_case "trace: per-domain tracks and thread names" `Quick
      test_spans_across_domains;
    Alcotest.test_case "trace: record and instant events" `Quick test_record_and_instant;
    Alcotest.test_case "trace: export carries ph/ts/pid/tid" `Quick
      test_export_required_fields;
    Alcotest.test_case "trace: clear empties buffers" `Quick test_clear_drops_events;
    Alcotest.test_case "trace: disabled path allocates nothing" `Quick
      test_disabled_path_does_not_allocate;
    Alcotest.test_case "metrics: counter and gauge" `Quick test_counter_and_gauge;
    Alcotest.test_case "metrics: kind conflicts raise" `Quick test_kind_conflict;
    Alcotest.test_case "metrics: histogram renders cumulative buckets" `Quick
      test_histogram_render_cumulative;
    Alcotest.test_case "metrics: quantile estimate" `Quick test_histogram_quantile;
    Alcotest.test_case "metrics: label escaping" `Quick test_label_escaping;
    Alcotest.test_case "metrics: labelled series share one family" `Quick
      test_labelled_series_share_family;
    Alcotest.test_case "metrics: concurrent increments are not lost" `Quick
      test_metrics_concurrent_increments;
    Alcotest.test_case "pipeline: compile emits >= 5 stage spans" `Quick
      test_compile_emits_stage_spans;
    Alcotest.test_case "service: Prometheus text exposition" `Quick
      test_service_metrics_text;
    Alcotest.test_case "trace: streaming sink flush + repair" `Quick test_streaming_sink;
    Alcotest.test_case "trace: capture/absorb across processes" `Quick test_capture_absorb;
  ]
