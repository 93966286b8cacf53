(* The layered benchmark.  See README.md for the workloads, the metrics
   and which layer each metric watches.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1
               [--mimdloop PATH] [--out DIR] [--commit ID]
               [--inject-delay LAYER]

   The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}; untraced runs report
   the end-to-end metrics, traced runs the per-layer ones.  The full
   result, with host metadata and any failed check, is also written
   under --out. *)

open Common

let workloads = [ "compile"; "exec-mesh"; "exec-sockets"; "serve" ]

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  mimdloop : string;
  out : string;
  commit : string;
}

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1 [--mimdloop PATH] \
     [--out DIR] [--commit ID] [--inject-delay LAYER]";
  exit 2

let parse_args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let opt k d = Option.value ~default:d (Hashtbl.find_opt tbl k) in
  injected := Hashtbl.find_opt tbl "inject-delay";
  let workload = get "workload" in
  if not (List.mem workload workloads) then begin
    prerr_endline ("unknown workload " ^ workload);
    exit 2
  end;
  match int_of_string_opt (get "seed"), float_of_string_opt (get "seconds"), get "trace" with
  | Some seed, Some seconds, ("0" | "1" as t) when seconds > 0.0 ->
    {
      workload;
      seed;
      seconds;
      trace = t = "1";
      mimdloop = opt "mimdloop" "_build/default/bin/mimdloop.exe";
      out = opt "out" ".perfbench";
      commit = opt "commit" "unknown";
    }
  | _ -> usage ()

(* ---- host ---- *)

type host = { nproc : int; cycle_ns : float; rtt_us : float; effective_k : float }

(* Forks its echo peers, so it runs before any domain or thread. *)
let probe_host () =
  let nproc = Domain.recommended_domain_count () in
  let cycle_ns = Mimd_dist.Linkprobe.calibrate_cycle_ns () in
  let p = Mimd_dist.Linkprobe.probe ~rounds:200 ~procs:2 () in
  let link = List.hd p.Mimd_dist.Linkprobe.links in
  {
    nproc;
    cycle_ns;
    rtt_us = link.Mimd_dist.Linkprobe.rtt_ns /. 1e3;
    effective_k = link.Mimd_dist.Linkprobe.effective_k;
  }

(* Every workload uses two threads, domains, processes or connections
   at most; refuse to oversubscribe a smaller host. *)
let require_parallelism host n what =
  if n > host.nproc then begin
    Printf.eprintf "refusing to start %d %s on a host with nproc = %d\n" n what host.nproc;
    exit 3
  end

(* ---- per-layer metric helpers ---- *)

let span_median selfs name = median (Span.per_op_self_ms selfs name)

(* Median duration of the spans named [name], whatever op they ran in. *)
let raw_median selfs name =
  median
    (List.filter_map
       (fun ((s : Span.t), _) -> if s.name = name then Some (ms_of_ns (s.t1 - s.t0)) else None)
       selfs)

let traced_halves ~seconds ~untraced ~traced =
  let a = untraced (seconds /. 2.0) in
  Span.enable ();
  let b = traced (seconds /. 2.0) in
  Span.disable ();
  (a, b)

let overhead_pct ~untraced ~traced =
  let u = median untraced and t = median traced in
  if u = 0.0 then 0.0 else 100.0 *. (t -. u) /. u

(* ---- compile ---- *)

(* Nominal seconds one deck takes on the reference host: a run measures
   a whole number of rounds of the deck, the number closest to
   --seconds. *)
let compile_deck_seconds = 7.5

let run_compile a _host =
  let pool, setup_s = timed_setup ~times:200 Wl_compile.setup in
  let rng = Mimd_util.Prng.create ~seed:a.seed in
  let rounds s = max 1 (int_of_float ((s /. compile_deck_seconds) +. 0.5)) in
  let blocks = ref [] in
  let run first_op s = Wl_compile.loop ~pool ~rng ~rounds:(rounds s) ~first_op ~blocks in
  let (lat, _, failures), layers =
    if not a.trace then (run 0 a.seconds, [])
    else begin
      let (lat0, _, f0), (lat1, outs1, f1) =
        traced_halves ~seconds:a.seconds ~untraced:(run 0) ~traced:(run 1_000_000)
      in
      Span.enable ();
      let growth = Wl_compile.comm_opt_growth ~first_op:2_000_000 in
      let incr0 = Mimd_tune.Incr.stats Mimd_tune.Incr.global in
      Wl_serve.service_layers (Wl_serve.hot_set ())
        (List.init 16 (fun i ->
             Wl_serve.fresh_request (Mimd_util.Prng.create ~seed:(i + 1)) (300 + i)));
      let incr1 = Mimd_tune.Incr.stats Mimd_tune.Incr.global in
      Span.disable ();
      let selfs = Span.self_times (Span.all ()) in
      let comm_opt_by_op = Span.per_op_self_ms_by_op selfs "codegen.comm_opt" in
      let comm_ms n = List.assoc (List.assoc n growth) comm_opt_by_op in
      let o = List.map (fun (_, _, o) -> o) outs1 in
      let kept = List.filter_map (fun (o : Wl_compile.outcome) -> o.kept_share) o in
      ( (lat0 @ lat1, outs1, f0 @ f1),
        [
          ("loop_ir.frontend_ms", span_median selfs "loop_ir.frontend", "ms");
          ("core.prepare_ms", span_median selfs "core.prepare", "ms");
          ("core.finish_ms", span_median selfs "core.finish", "ms");
          ( "core.entries",
            median (List.map (fun (o : Wl_compile.outcome) -> float_of_int o.entries) o),
            "count" );
          ("check.validate_ms", span_median selfs "check.validate", "ms");
          ( "check.issues",
            float_of_int
              (List.fold_left
                 (fun acc (f : Wl_compile.failure) -> acc + f.failed_issues)
                 0 (f0 @ f1)),
            "count" );
          ("codegen.from_schedule_ms", span_median selfs "codegen.from_schedule", "ms");
          ("codegen.comm_opt_ms", span_median selfs "codegen.comm_opt", "ms");
          ("codegen.comm_opt_ms.n30", comm_ms 30, "ms");
          ("codegen.comm_opt_ms.n60", comm_ms 60, "ms");
          ("codegen.comm_opt_ms.n120", comm_ms 120, "ms");
          ("codegen.comm_opt_kept_share", median kept, "ratio");
          ("sim.exec_ms", span_median selfs "sim.exec", "ms");
          ("runtime.lower_ms", span_median selfs "runtime.lower", "ms");
          ( "runtime.lower_skipped",
            float_of_int (List.length (List.filter (fun (o : Wl_compile.outcome) -> o.lower_skipped) o)),
            "count" );
          ("trace.layer_share", Span.layer_share selfs ~root:"op", "ratio");
          ("trace.overhead_pct", overhead_pct ~untraced:(List.map snd lat0) ~traced:(List.map snd lat1), "%");
          ("server.hit_ms", raw_median selfs "server.hit", "ms");
          ("server.miss_ms", raw_median selfs "server.miss", "ms");
          ("server.protocol_us", 1e3 *. raw_median selfs "server.protocol", "us");
          ( "tune.incr_reuse_share",
            (let hits = incr1.Mimd_tune.Incr.hits - incr0.Mimd_tune.Incr.hits in
             let lookups = hits + incr1.Mimd_tune.Incr.misses - incr0.Mimd_tune.Incr.misses in
             if lookups = 0 then 0.0 else float_of_int hits /. float_of_int lookups),
            "ratio" );
        ] )
    end
  in
  let quality = Wl_compile.quality ~pool in
  {
    setup_s;
    op_ms = lat;
    blocks = !blocks;
    attempted = List.length lat + List.length failures;
    failed = List.length failures;
    quality;
    peak_rss_mb = peak_rss_mb "self";
    layers;
    notes = [ ("rounds", string_of_int (rounds a.seconds)); ("pool", string_of_int (List.length pool)) ];
    problems = List.map (fun (f : Wl_compile.failure) -> f.what) failures;
  }

(* ---- exec-mesh and exec-sockets ---- *)

let run_exec transport a host =
  let progs, setup_s = timed_setup ~times:3 Wl_exec.setup in
  List.iter
    (fun (p : Wl_exec.prog) ->
      require_parallelism host p.program.Mimd_codegen.Program.processors
        ("processors for " ^ p.name))
    progs;
  let rng = Mimd_util.Prng.create ~seed:a.seed in
  let respawns0 = Wl_exec.respawns () in
  let blocks = ref [] in
  let run first_op s = Wl_exec.loop transport progs ~rng ~seconds:s ~first_op ~blocks in
  let prefix = match transport with Wl_exec.Mesh -> "runtime" | Wl_exec.Sockets -> "dist" in
  let (samples, failures), layers =
    if not a.trace then (run 0 a.seconds, [])
    else begin
      let (s0, f0), (s1, f1) =
        traced_halves ~seconds:a.seconds ~untraced:(run 0) ~traced:(run 1_000_000)
      in
      let selfs = Span.self_times (Span.all ()) in
      let samples = s0 @ s1 in
      let s0 = List.map snd s0 and s1 = List.map snd s1 in
      let over f = median (List.map f s1) in
      let makespan (s : Wl_exec.sample) = s.makespan_ns /. 1e6 in
      let call_ms (s : Wl_exec.sample) = s.call_ms in
      let lat s = List.map call_ms s in
      ( (samples, f0 @ f1),
        [
          (prefix ^ ".call_ms", over call_ms, "ms");
          (prefix ^ ".makespan_ms", over makespan, "ms");
          (prefix ^ ".overhead_ms", over (fun s -> call_ms s -. makespan s), "ms");
          ("loop_ir.interp_ms", span_median selfs "loop_ir.interp", "ms");
          ("sim.model_error_pct", over (Wl_exec.model_error_pct ~cycle_ns:host.cycle_ns), "%");
          ("trace.overhead_pct", overhead_pct ~untraced:(lat s0) ~traced:(lat s1), "%");
          ("trace.layer_share", Span.layer_share selfs ~root:"op", "ratio");
        ]
        @
        match transport with
        | Wl_exec.Mesh ->
          [
            ( "runtime.messages",
              over (fun s -> float_of_int s.messages),
              "count" );
            ("runtime.domain_skew", over (fun s -> s.skew), "ratio");
          ]
        | Wl_exec.Sockets ->
          [
            ("dist.rtt_us", host.rtt_us, "us");
            ("dist.effective_k", host.effective_k, "cycles");
            ("dist.retries", float_of_int (Wl_exec.respawns () - respawns0), "count");
          ] )
    end
  in
  let quality = Wl_exec.quality transport progs in
  {
    setup_s;
    op_ms = List.map (fun (k, (s : Wl_exec.sample)) -> (k, s.call_ms)) samples;
    blocks = !blocks;
    attempted = List.length samples + List.length failures;
    failed = List.length failures;
    quality;
    peak_rss_mb = peak_rss_mb "self";
    layers;
    notes =
      List.map
        (fun (p : Wl_exec.prog) ->
          ("processors." ^ p.name, string_of_int p.program.Mimd_codegen.Program.processors))
        progs;
    problems = failures;
  }

(* ---- serve ---- *)

let run_serve a host =
  require_parallelism host Wl_serve.workers "router workers";
  require_parallelism host Wl_serve.connections "connections";
  let hot = Wl_serve.hot_set () in
  let boots = ref 0 in
  let fleet, setup_s =
    timed_setup ~times:3 ~discard:Wl_serve.shutdown (fun () ->
        incr boots;
        let dir =
          Filename.concat a.out (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) !boots)
        in
        let f = Wl_serve.boot ~mimdloop:a.mimdloop ~dir in
        Wl_serve.warm f hot;
        f)
  in
  Fun.protect ~finally:(fun () -> Wl_serve.shutdown fleet) @@ fun () ->
  let rng = Mimd_util.Prng.create ~seed:a.seed in
  let trips = Wl_serve.fresh_iterations rng in
  let next_fresh = Wl_serve.fresh_source ~rng:(Mimd_util.Prng.split rng) ~trips in
  (* No deck here: each op loop is one block. *)
  let blocks = ref [] in
  let run first_op s =
    let t0 = now_ns () in
    let ((lat, _, _) as r) = Wl_serve.op_loop fleet ~hot ~rng ~next_fresh ~seconds:s ~first_op in
    blocks := block_since t0 lat :: !blocks;
    r
  in
  let service = Mimd_server.Service.create () in
  let expected =
    Array.map (fun r -> (Wl_serve.in_process service r).Mimd_server.Service.result) hot
  in
  let (lat, replies, failures), layers, problems =
    if not a.trace then (run 0 a.seconds, [], [])
    else begin
      let (l0, r0, f0), (l1, r1, f1) =
        traced_halves ~seconds:a.seconds ~untraced:(run 0) ~traced:(run 10_000_000)
      in
      let replies = r0 @ r1 in
      let share tier =
        float_of_int (List.length (List.filter (fun (r : Wl_serve.reply) -> r.tier = tier) replies))
        /. float_of_int (max 1 (List.length replies))
      in
      let hop_ms, hop_problems = Wl_serve.router_hop_ms fleet hot in
      let router = Wl_serve.stats fleet.Wl_serve.router in
      let shed =
        Option.value ~default:0 (Option.bind (Mimd_server.Json.member "shed" router) Mimd_server.Json.to_int_opt)
      in
      let attempted = List.length l0 + List.length l1 + List.length f0 + List.length f1 in
      Span.enable ();
      Wl_serve.service_layers hot
        (List.init 16 (fun _ -> next_fresh ()));
      Span.disable ();
      let selfs = Span.self_times (Span.all ()) in
      let raw = raw_median selfs in
      ( (l0 @ l1, replies, f0 @ f1),
        [
          ("server.hit_ms", raw "server.hit", "ms");
          ("server.miss_ms", raw "server.miss", "ms");
          ("server.protocol_us", 1e3 *. raw "server.protocol", "us");
          ("server.memory_hit_share", share "memory", "ratio");
          ("server.disk_hit_share", share "disk", "ratio");
          ("server.computed_share", share "computed", "ratio");
          ("server.queue_wait_ms_p90", Wl_serve.queue_wait_p90 fleet, "ms");
          ("dist.router_hop_ms", hop_ms, "ms");
          ("dist.shed_share", float_of_int shed /. float_of_int (max 1 attempted), "ratio");
          ("tune.incr_reuse_share", Wl_serve.incr_reuse_share fleet, "ratio");
          ("dist.rtt_us", host.rtt_us, "us");
          ("dist.effective_k", host.effective_k, "cycles");
          ("trace.overhead_pct", overhead_pct ~untraced:l0 ~traced:l1, "%");
        ],
        hop_problems )
    end
  in
  let quality = Wl_serve.quality service hot in
  let rss = Wl_serve.fleet_rss_mb fleet in
  {
    setup_s;
    op_ms = List.mapi (fun i ms -> (string_of_int i, ms)) lat;
    blocks = !blocks;
    attempted = List.length lat + List.length failures;
    failed = List.length failures;
    quality;
    peak_rss_mb = rss;
    layers;
    notes = [ ("hot_set", string_of_int (Array.length hot)) ];
    problems = failures @ problems @ Wl_serve.check_replies expected replies;
  }

(* ---- result ---- *)

let per_layer_names =
  [
    ("failed_share", "ratio");
    ("trace.overhead_pct", "%");
    ("trace.layer_share", "ratio");
    ("loop_ir.frontend_ms", "ms");
    ("core.prepare_ms", "ms");
    ("core.finish_ms", "ms");
    ("core.entries", "count");
    ("check.validate_ms", "ms");
    ("check.issues", "count");
    ("codegen.from_schedule_ms", "ms");
    ("codegen.comm_opt_ms", "ms");
    ("codegen.comm_opt_ms.n30", "ms");
    ("codegen.comm_opt_ms.n60", "ms");
    ("codegen.comm_opt_ms.n120", "ms");
    ("codegen.comm_opt_kept_share", "ratio");
    ("sim.exec_ms", "ms");
    ("runtime.lower_ms", "ms");
    ("runtime.lower_skipped", "count");
    ("runtime.call_ms", "ms");
    ("runtime.makespan_ms", "ms");
    ("runtime.overhead_ms", "ms");
    ("runtime.messages", "count");
    ("runtime.domain_skew", "ratio");
    ("loop_ir.interp_ms", "ms");
    ("sim.model_error_pct", "%");
    ("dist.call_ms", "ms");
    ("dist.makespan_ms", "ms");
    ("dist.overhead_ms", "ms");
    ("dist.rtt_us", "us");
    ("dist.effective_k", "cycles");
    ("dist.retries", "count");
    ("server.hit_ms", "ms");
    ("server.miss_ms", "ms");
    ("server.protocol_us", "us");
    ("server.memory_hit_share", "ratio");
    ("server.disk_hit_share", "ratio");
    ("server.computed_share", "ratio");
    ("server.queue_wait_ms_p90", "ms");
    ("dist.router_hop_ms", "ms");
    ("dist.shed_share", "ratio");
    ("tune.incr_reuse_share", "ratio");
  ]

(* Timings are medians over the run's blocks (see [Common.block]).
   p99 only where a block holds enough samples for ten to lie beyond
   it: serve's single block, not compile's or exec's (92 and 50 ops). *)
let e2e ~p99 r =
  let over_blocks f = median (List.map f r.blocks) in
  let pct name q = (name, over_blocks (fun b -> quantile q b.lat_ms), "ms") in
  [ ("setup_s", r.setup_s, "s"); pct "latency_ms_p50" 0.50; pct "latency_ms_p90" 0.90 ]
  @ (if p99 then [ pct "latency_ms_p99" 0.99 ] else [])
  @ [
    ( "throughput_ops_s",
      over_blocks (fun b -> float_of_int (List.length b.lat_ms) /. b.wall_s),
      "1/s" );
    ("peak_rss_mb", r.peak_rss_mb, "MiB");
    ("sp_pct_mean", r.quality.sp_pct_mean, "%");
    ("messages_total", float_of_int r.quality.messages_total, "count");
    ("code_instrs_total", float_of_int r.quality.code_instrs_total, "count");
  ]

(* Layers a workload does not reach report 0. *)
let per_layer r =
  let failed_share = float_of_int r.failed /. float_of_int (max 1 r.attempted) in
  List.map
    (fun (name, unit) ->
      let v =
        if name = "failed_share" then failed_share
        else
          match List.find_opt (fun (n, _, _) -> n = name) r.layers with
          | Some (_, v, _) -> v
          | None -> 0.0
      in
      (name, v, unit))
    per_layer_names

let jstr s = "\"" ^ Mimd_server.Json.escape s ^ "\""

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (n, v, u) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (jstr n) (json_number v) (jstr u))
         ms)
  ^ "}"

(* Determinism guard: the quality metrics of one source tree and
   workload must repeat exactly in every run, traced or not. *)
let guard_quality a (q : quality) =
  let path = Filename.concat a.out (Printf.sprintf "quality-%s-%s.txt" a.commit a.workload) in
  let line =
    Printf.sprintf "%h %d %d" q.sp_pct_mean q.messages_total q.code_instrs_total
  in
  match In_channel.with_open_text path In_channel.input_all with
  | previous when String.trim previous = line -> []
  | previous ->
    [ Printf.sprintf "quality metrics changed between runs: was %s, now %s" (String.trim previous) line ]
  | exception Sys_error _ ->
    let tmp = path ^ Printf.sprintf ".%d" (Unix.getpid ()) in
    Out_channel.with_open_text tmp (fun oc -> output_string oc line);
    Sys.rename tmp path;
    []

let () =
  let a = parse_args () in
  if not (Sys.file_exists a.out) then Unix.mkdir a.out 0o755;
  let host = probe_host () in
  require_parallelism host 2 "workers";
  let r =
    match a.workload with
    | "compile" -> run_compile a host
    | "exec-mesh" -> run_exec Wl_exec.Mesh a host
    | "exec-sockets" -> run_exec Wl_exec.Sockets a host
    | _ -> run_serve a host
  in
  let problems = r.problems @ guard_quality a r.quality in
  let metrics = if a.trace then per_layer r else e2e ~p99:(a.workload = "serve") r in
  let meta =
    [
      ("workload", a.workload);
      ("seed", string_of_int a.seed);
      ("seconds", Printf.sprintf "%g" a.seconds);
      ("trace", if a.trace then "1" else "0");
      ("nproc", string_of_int host.nproc);
      ("ocaml", Sys.ocaml_version);
      ("commit", a.commit);
      ("cycle_ns", Printf.sprintf "%.6g" host.cycle_ns);
      ("uds_rtt_us", Printf.sprintf "%.6g" host.rtt_us);
      ("ops", string_of_int (List.length r.op_ms));
    ]
    @ r.notes
    @ match !injected with Some l -> [ ("inject_delay", l) ] | None -> []
  in
  let meta_json =
    "{" ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ jstr v) meta) ^ "}"
  in
  let problems_json =
    "[" ^ String.concat ", " (List.map jstr problems) ^ "]"
  in
  let result =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
      (problems = []) r.attempted r.failed (metrics_json metrics)
  in
  let base =
    Filename.concat a.out
      (Printf.sprintf "%s-seed%d-trace%d" a.workload a.seed (if a.trace then 1 else 0))
  in
  Out_channel.with_open_text (base ^ ".json") (fun oc ->
      Printf.fprintf oc
        "{\"host\": %s, \"problems\": %s, \"blocks\": [%s], \"op_ms\": [%s], \"result\": %s}\n"
        meta_json problems_json
        (String.concat ", "
           (List.map
              (fun b ->
                Printf.sprintf "[%d, %s, %s, %s]" (List.length b.lat_ms)
                  (json_number b.wall_s)
                  (json_number (quantile 0.5 b.lat_ms))
                  (json_number (quantile 0.9 b.lat_ms)))
              (List.rev r.blocks)))
        (String.concat ", "
           (List.map (fun (k, ms) -> Printf.sprintf "[%s, %s]" (jstr k) (json_number ms)) r.op_ms))
        result);
  if a.trace then Span.export (base ^ ".trace.json") (Span.all ());
  List.iter (fun p -> prerr_endline ("check failed: " ^ p)) problems;
  print_endline ("host " ^ meta_json);
  print_endline result
