(* mimdloop — command-line driver for the pattern-based MIMD loop
   scheduler and its evaluation harness. *)

open Cmdliner

module Graph = Mimd_ddg.Graph
module Config = Mimd_machine.Config
module Classify = Mimd_core.Classify
module Cyclic_sched = Mimd_core.Cyclic_sched
module Full_sched = Mimd_core.Full_sched
module Schedule = Mimd_core.Schedule
module Pattern = Mimd_core.Pattern
module Depend = Mimd_loop_ir.Depend
module Comm_opt = Mimd_codegen.Comm_opt
module Server = Mimd_server.Server
module W = Mimd_workloads

(* ------------------------------------------------------------------ *)
(* Workload / input resolution                                         *)

let workloads : (string * (unit -> Graph.t) * string) list =
  [
    ("fig1", W.Fig1.graph, "paper Figure 1 classification example");
    ("fig3", W.Fig3.graph, "paper Figure 3 pattern example");
    ("fig7", W.Fig7.graph, "paper Figure 7 worked example");
    ("cytron86", W.Cytron86.graph, "paper Figures 9-10 example from [Cytron86]");
    ("ll18", W.Livermore.graph, "Livermore Loop 18 (paper Figure 11)");
    ("ewf", W.Elliptic.graph, "fifth-order elliptic wave filter (paper Figure 12)");
    ("ll5", (fun () -> (W.Recurrences.ll5 ()).W.Recurrences.graph), "Livermore 5");
    ("ll11", (fun () -> (W.Recurrences.ll11 ()).W.Recurrences.graph), "Livermore 11");
    ("ll19", (fun () -> (W.Recurrences.ll19 ()).W.Recurrences.graph), "Livermore 19");
    ("ll23", (fun () -> (W.Recurrences.ll23 ()).W.Recurrences.graph), "Livermore 23");
    ("iir4", (fun () -> (W.Recurrences.iir4 ()).W.Recurrences.graph), "4th-order IIR cascade");
  ]

let fail e =
  prerr_endline ("mimdloop: " ^ e);
  1

(* The one front end: a loop-IR file to its analysis (parse,
   if-conversion, dependences), every failure a message. *)
let analyze_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | src -> Depend.of_source src
  | exception Sys_error e -> Error e

let load_graph ~workload ~file ~seed =
  match (workload, file, seed) with
  | Some name, None, None -> begin
    match List.find_opt (fun (n, _, _) -> n = name) workloads with
    | Some (_, f, _) -> Ok (f ())
    | None ->
      Error
        (Printf.sprintf "unknown workload %S; known: %s" name
           (String.concat ", " (List.map (fun (n, _, _) -> n) workloads)))
  end
  | None, Some path, None -> Result.map (fun a -> a.Depend.graph) (analyze_file path)
  | None, None, Some seed -> begin
    match W.Random_loop.generate_cyclic ~seed () with
    | Some g -> Ok g
    | None -> Error (Printf.sprintf "seed %d yields an empty Cyclic subset" seed)
  end
  | None, None, None -> Error "choose an input: --workload, --file or --seed"
  | _ -> Error "choose exactly one of --workload, --file, --seed"

let with_graph input f = match input with Error e -> fail e | Ok g -> f g

(* ------------------------------------------------------------------ *)
(* Common options                                                      *)

let workload_t =
  let doc = "Named workload (see $(b,mimdloop list))." in
  Arg.(value & opt (some string) None & info [ "w"; "workload" ] ~docv:"NAME" ~doc)

let file_t =
  let doc = "Loop source file in the mini language." in
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE" ~doc)

let seed_t =
  let doc = "Random loop (Section 4 generator), Cyclic subset of this seed." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc)

(* The input of the graph commands: one of -w, -f, --seed, resolved. *)
let graph_t =
  Term.(
    const (fun workload file seed -> load_graph ~workload ~file ~seed)
    $ workload_t $ file_t $ seed_t)

(* Numbers with a lower bound: cmdliner reports anything else as a
   usage error instead of the pipeline raising on it later. *)
let bounded_int ~min ~what =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= min -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s is not a %s integer" s what))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_int = bounded_int ~min:1 ~what:"positive"
let non_negative_int = bounded_int ~min:0 ~what:"non-negative"

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some x when x > 0.0 -> Ok x
    | Some _ -> Error (`Msg (Printf.sprintf "%s is not a positive number" s))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected a number" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let processors_t =
  let doc = "Processors for the Cyclic core." in
  Arg.(value & opt positive_int 2 & info [ "p"; "processors" ] ~docv:"P" ~doc)

let k_t =
  let doc = "Estimated communication cost (the paper's k)." in
  Arg.(value & opt non_negative_int 2 & info [ "k" ] ~docv:"K" ~doc)

let iterations_t =
  let doc = "Loop trip count for measurements." in
  Arg.(value & opt positive_int 100 & info [ "n"; "iterations" ] ~docv:"N" ~doc)

let machine_of processors k = Config.make ~processors ~comm_estimate:k
let machine_t = Term.(const machine_of $ processors_t $ k_t)

let mm_t =
  Arg.(value & opt positive_int 1 & info [ "mm" ] ~docv:"MM"
         ~doc:"Run-time fluctuation factor: each message's latency is drawn uniformly \
               from [k, k + $(docv) - 1].")

let links_of ~k ~mm =
  if mm = 1 then Mimd_sim.Links.fixed k else Mimd_sim.Links.uniform ~base:k ~mm ~seed:42

(* ------------------------------------------------------------------ *)
(* --auto-k: schedule at the measured k                                *)

let auto_k_t =
  Arg.(value & flag & info [ "auto-k" ]
         ~doc:"Measure k first: run a live link probe over the socket mesh and schedule \
               at the measured k (the dearest link's effective k, rounded, at least 1) \
               instead of the assumed $(b,-k).  Needs $(b,-p) >= 2.")

(* Probe the mesh once and price the machine at the measured scalar k.
   A single processor has no link to probe, so the assumed machine
   stands. *)
let auto_k_machine machine =
  let processors = machine.Config.processors and assumed = machine.Config.comm_estimate in
  if processors < 2 then begin
    Format.eprintf "mimdloop: --auto-k needs -p >= 2; keeping the assumed k = %d@." assumed;
    machine
  end
  else begin
    let k = Mimd_dist.Linkprobe.(measured_k (probe ~procs:processors ())) in
    Format.printf "auto-k: measured k = %d (assumed k = %d)@." k assumed;
    machine_of processors k
  end

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)

let trace_t =
  let doc =
    "Capture an execution trace of this command and write it to $(docv) as Chrome \
     trace_event JSON (load it in Perfetto or chrome://tracing).  See \
     docs/OBSERVABILITY.md for the span taxonomy."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Point fd 1 at /dev/null, so output still buffered for a reader that
   went away drains harmlessly. *)
let stdout_to_null () =
  try
    let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 null Unix.stdout;
    Unix.close null
  with Unix.Unix_error _ -> ()

(* Commands that print incrementally ([Format]'s [@.] flushes at every
   line) can hit a stdout the reader already closed (mimdloop ... |
   head): with SIGPIPE ignored the flush raises [Sys_error "Broken
   pipe"] mid-command, which cmdliner reports as an internal error.  A
   reader that stopped consuming is not an error — drop the rest of
   the output and exit cleanly, like the exit handler below. *)
let guard_broken_pipe f =
  try f ()
  with Sys_error msg when msg = "Broken pipe" ->
    stdout_to_null ();
    0

(* Run [f] with tracing on when a trace file was requested; the export
   happens after [f] even when it fails, so partial traces of failing
   runs are still written. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path -> (
    Mimd_obs.Trace.clear ();
    Mimd_obs.Trace.enable ();
    let code = Fun.protect ~finally:Mimd_obs.Trace.disable f in
    let dropped = Mimd_obs.Trace.dropped () in
    if dropped > 0 then
      Printf.eprintf "mimdloop: warning: %d trace event(s) dropped (buffer full)\n%!"
        dropped;
    let json = Mimd_obs.Trace.export () in
    match Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc json) with
    | () ->
      Printf.eprintf "mimdloop: trace written to %s\n%!" path;
      code
    | exception Sys_error e -> fail e)

(* Long-running commands (serve) stream instead of exporting at exit:
   events flush to the file as the buffers fill, so a killed server
   still leaves a readable trace (the Chrome viewer tolerates the
   missing closing bracket). *)
let with_streaming_trace trace f =
  match trace with
  | None -> f ()
  | Some path -> (
    Mimd_obs.Trace.clear ();
    Mimd_obs.Trace.enable ();
    match Mimd_obs.Trace.set_sink ~threshold:256 path with
    | exception Sys_error e ->
      Mimd_obs.Trace.disable ();
      fail e
    | () ->
      let code =
        Fun.protect
          ~finally:(fun () ->
            Mimd_obs.Trace.close_sink ();
            Mimd_obs.Trace.disable ())
          f
      in
      Printf.eprintf "mimdloop: trace streamed to %s\n%!" path;
      code)

(* ------------------------------------------------------------------ *)
(* The comm-opt rewrite                                                *)

(* --comm-opt with its --comm-window: [Some window] when the rewrite
   is on. *)
let comm_opt_t =
  let on =
    Arg.(value & flag & info [ "comm-opt" ]
           ~doc:"Rewrite the generated programs with the synchronization-minimizing pass: \
                 elide messages whose ordering is transitively implied by retained \
                 messages (forwarding their values on the retained frames) and coalesce \
                 per-link messages into multi-tag frames.")
  in
  let window =
    Arg.(value & opt non_negative_int 4 & info [ "comm-window" ] ~docv:"W"
           ~doc:"Iteration span a coalesced frame may cover under $(b,--comm-opt): \
                 members satisfy max iter - min iter < $(docv); 0 disables coalescing.")
  in
  Term.(const (fun on window -> if on then Some window else None) $ on $ window)

let print_comm_stats (stats : Comm_opt.stats) =
  Format.printf
    "comm-opt: messages %d -> %d (elided %d, coalesced %d, %d forwarded value(s))@."
    stats.messages_before stats.messages_after stats.elided stats.coalesced
    stats.forwarded_values

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)

let list_cmd =
  let run () =
    List.iter (fun (n, _, d) -> Printf.printf "%-10s %s\n" n d) workloads;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in workloads") Term.(const run $ const ())

let classify_cmd =
  let run input dot =
    with_graph input (fun g ->
        let cls = Classify.run g in
        if dot then begin
          let highlight v =
            match cls.Classify.membership.(v) with
            | Classify.Flow_in -> Some "lightblue"
            | Classify.Cyclic -> Some "lightcoral"
            | Classify.Flow_out -> Some "lightgreen"
          in
          print_string (Mimd_ddg.Dot.to_string ~highlight g)
        end
        else begin
          Format.printf "%a@." (Classify.pp ~names:(Graph.name g)) cls;
          Format.printf "DOALL: %b@." (Classify.is_doall cls)
        end;
        0)
  in
  let dot_t = Arg.(value & flag & info [ "dot" ] ~doc:"Emit Graphviz DOT with subset colours.") in
  Cmd.v
    (Cmd.info "classify" ~doc:"Partition a loop into Flow-in / Cyclic / Flow-out (paper Fig. 2)")
    Term.(const run $ graph_t $ dot_t)

let schedule_cmd =
  let run input machine iterations validate auto_k comm_opt trace =
    with_graph input (fun g ->
        with_trace trace @@ fun () ->
        let machine = if auto_k then auto_k_machine machine else machine in
        let compiled =
          if validate || Option.is_some comm_opt then
            Mimd_check.Fuzz.compile ?window:comm_opt ~graph:g ~machine ~iterations ()
            |> Result.map (fun (c : Mimd_check.Fuzz.compiled) ->
                   (c.full, Option.map (fun opt -> (c.program, opt)) c.optimized))
          else Ok (Full_sched.run ~graph:g ~machine ~iterations (), None)
        in
        match compiled with
        | Error e -> fail e
        | Ok (full, comm) -> (
        print_string (Full_sched.report full);
        Option.iter (Format.printf "%a@." Pattern.pp) full.Full_sched.pattern;
        print_string (Schedule.render_grid ~max_cycles:60 full.Full_sched.schedule);
        let seq = Mimd_core.Metrics.sequential_time g ~iterations in
        let par = Full_sched.parallel_time full in
        Format.printf "sequential %d, parallel %d -> percentage parallelism %.1f@." seq par
          (Mimd_core.Metrics.percentage_parallelism ~sequential:seq ~parallel:par);
        match comm with
        | None -> 0
        | Some (program, (opt, stats)) ->
          (* Re-price the schedule's communication term: same programs,
             fewer frames, simulated at the same per-message cost k. *)
          print_comm_stats stats;
          let k = machine.Config.comm_estimate in
          let links = Mimd_sim.Links.fixed k in
          let before = Mimd_sim.Exec.run ~program ~links () in
          let after = Mimd_sim.Exec.run ~program:opt ~links () in
          Format.printf
            "comm-opt: simulated makespan %d -> %d at k=%d (comm cycles %d -> %d)@."
            before.Mimd_sim.Exec.makespan after.Mimd_sim.Exec.makespan k
            before.Mimd_sim.Exec.comm_cycles after.Mimd_sim.Exec.comm_cycles;
          0))
  in
  let validate_t =
    Arg.(value & flag & info [ "validate" ]
           ~doc:"Audit the schedule, its pattern and the generated programs with the \
                 independent checker (mimd_check) before reporting; exit non-zero if any \
                 is rejected.  $(b,--comm-opt) implies the same audit.")
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Run the full pattern-based scheduling pipeline (paper Fig. 6)")
    Term.(
      const run $ graph_t $ machine_t $ iterations_t $ validate_t $ auto_k_t $ comm_opt_t
      $ trace_t)

let doacross_cmd =
  let run input machine iterations exhaustive =
    with_graph input (fun g ->
        let doa =
          if exhaustive then (Mimd_doacross.Reorder.exhaustive ~graph:g ~machine ()).analysis
          else Mimd_doacross.Reorder.best ~graph:g ~machine ()
        in
        Format.printf "%a@." Mimd_doacross.Doacross.pp doa;
        let seq = Mimd_core.Metrics.sequential_time g ~iterations in
        let par = Mimd_doacross.Doacross.effective_makespan doa ~iterations in
        Format.printf "sequential %d, parallel %d -> percentage parallelism %.1f@." seq par
          (Mimd_core.Metrics.percentage_parallelism ~sequential:seq ~parallel:par);
        0)
  in
  let ex_t = Arg.(value & flag & info [ "exhaustive" ] ~doc:"Force exhaustive reordering.") in
  Cmd.v
    (Cmd.info "doacross" ~doc:"Run the DOACROSS baseline [Cytron86]")
    Term.(const run $ graph_t $ machine_t $ iterations_t $ ex_t)

let cyclic_core g =
  let cls = Classify.run g in
  if Classify.is_doall cls then g
  else
    let core, _, _ = Classify.cyclic_subgraph g cls in
    core

let codegen_cmd =
  let run input machine =
    with_graph input (fun g ->
        match Cyclic_sched.solve ~graph:(cyclic_core g) ~machine () with
        | r ->
          print_string (Mimd_codegen.Rolled.render r.Cyclic_sched.pattern);
          0
        | exception Cyclic_sched.No_pattern m -> fail m)
  in
  Cmd.v
    (Cmd.info "codegen" ~doc:"Emit the transformed per-processor loop (paper Figs. 7(e)/10)")
    Term.(const run $ graph_t $ machine_t)

let simulate_cmd =
  let run input machine iterations mm =
    with_graph input (fun g ->
        let full = Full_sched.run ~graph:g ~machine ~iterations () in
        let links = links_of ~k:machine.Config.comm_estimate ~mm in
        let out = Mimd_sim.Exec.simulate_schedule ~schedule:full.Full_sched.schedule ~links () in
        let seq = Mimd_core.Metrics.sequential_time g ~iterations in
        Format.printf
          "simulated makespan %d (static %d), %d messages, %d comm cycles, busy %d@."
          out.Mimd_sim.Exec.makespan
          (Full_sched.parallel_time full)
          out.Mimd_sim.Exec.messages out.Mimd_sim.Exec.comm_cycles out.Mimd_sim.Exec.busy_cycles;
        Format.printf "percentage parallelism (simulated): %.1f@."
          (Mimd_core.Metrics.percentage_parallelism ~sequential:seq
             ~parallel:out.Mimd_sim.Exec.makespan);
        0)
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Execute the generated programs on the simulated multiprocessor")
    Term.(const run $ graph_t $ machine_t $ iterations_t $ mm_t)

let figures_cmd =
  let run only =
    let figs = Mimd_experiments.Figures.all () in
    let selected =
      match only with
      | None -> figs
      | Some id -> List.filter (fun (i, _) -> String.lowercase_ascii i = String.lowercase_ascii id) figs
    in
    if selected = [] then fail "unknown figure id"
    else begin
      List.iter (fun (id, text) -> Printf.printf "=== %s ===\n%s\n" id text) selected;
      0
    end
  in
  let only_t =
    Arg.(value & opt (some string) None & info [ "only" ] ~docv:"ID" ~doc:"Single figure id.")
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate every figure of the paper")
    Term.(const run $ only_t)

let table1_cmd =
  let run iterations processors k =
    let rows, summary = Mimd_experiments.Table1.run ~iterations ~processors ~k () in
    print_string (Mimd_experiments.Table1.render (rows, summary));
    0
  in
  let k_t3 =
    Arg.(value & opt non_negative_int 3 & info [ "k" ] ~docv:"K" ~doc:"Estimated comm cost.")
  in
  let p_t4 =
    Arg.(value & opt positive_int 4 & info [ "p"; "processors" ] ~docv:"P" ~doc:"Processors.")
  in
  Cmd.v
    (Cmd.info "table1" ~doc:"Regenerate paper Table 1 (25 random loops, mm in {1,3,5})")
    Term.(const run $ iterations_t $ p_t4 $ k_t3)

let bounds_cmd =
  let run input processors iterations =
    with_graph input (fun g ->
        let b = Mimd_core.Bounds.compute ~graph:g ~processors in
        Format.printf "%a@." Mimd_core.Bounds.pp b;
        let machine = machine_of processors 2 in
        let sched = Cyclic_sched.schedule_iterations ~graph:(Mimd_ddg.Unwind.normalize g).Mimd_ddg.Unwind.graph ~machine ~iterations () in
        let makespan = Schedule.makespan sched in
        Format.printf "greedy schedule: %d cycles for %d iterations (floor %d, efficiency %.2f)@."
          makespan iterations
          (Mimd_core.Bounds.makespan_floor b ~iterations)
          (Mimd_core.Bounds.efficiency b ~iterations ~makespan);
        0)
  in
  Cmd.v
    (Cmd.info "bounds" ~doc:"Lower bounds (recurrence/resource/span) and schedule efficiency")
    Term.(const run $ graph_t $ processors_t $ iterations_t)

let stats_cmd =
  let run with_random =
    let rows = Mimd_experiments.Pattern_stats.paper_workloads () in
    let rows =
      if with_random then rows @ Mimd_experiments.Pattern_stats.random_loops () else rows
    in
    print_string (Mimd_experiments.Pattern_stats.render rows);
    0
  in
  let random_t =
    Arg.(value & flag & info [ "random" ] ~doc:"Include the Table-1 random loops.")
  in
  Cmd.v
    (Cmd.info "stats" ~doc:"Pattern-search statistics (the paper's M < 10 claim)")
    Term.(const run $ random_t)

let extensions_cmd =
  let run () =
    List.iter
      (fun (id, text) -> Printf.printf "=== %s ===\n%s\n" id text)
      (Mimd_experiments.Scaling.all ());
    0
  in
  Cmd.v
    (Cmd.info "extensions" ~doc:"Extension experiments: processor scaling, granularity, topology")
    Term.(const run $ const ())

let gantt_cmd =
  let run input machine iterations mm cycles =
    with_graph input (fun g ->
        let full = Full_sched.run ~graph:g ~machine ~iterations () in
        let links = links_of ~k:machine.Config.comm_estimate ~mm in
        let out =
          Mimd_sim.Exec.simulate_schedule ~record:true ~schedule:full.Full_sched.schedule
            ~links ()
        in
        print_string
          (Mimd_sim.Gantt.render ~max_cycles:cycles ~graph:g
             ~processors:(Full_sched.total_processors full)
             out.Mimd_sim.Exec.trace);
        0)
  in
  let cyc_t =
    Arg.(value & opt non_negative_int 40 & info [ "cycles" ] ~docv:"N" ~doc:"Cycles to draw.")
  in
  Cmd.v
    (Cmd.info "gantt" ~doc:"ASCII Gantt chart of the simulated execution")
    Term.(const run $ graph_t $ machine_t $ iterations_t $ mm_t $ cyc_t)

let export_cmd =
  let run input machine iterations =
    with_graph input (fun g ->
        let full = Full_sched.run ~graph:g ~machine ~iterations () in
        print_string (Mimd_experiments.Export.schedule_csv full.Full_sched.schedule);
        0)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Dump the full schedule as CSV (node,name,iter,PE,start,finish)")
    Term.(const run $ graph_t $ machine_t $ iterations_t)

let converge_cmd =
  let run input machine =
    with_graph input (fun g ->
        let rows = Mimd_experiments.Convergence.measure ~graph:g ~machine () in
        print_string (Mimd_experiments.Convergence.render ~label:"loop" rows);
        0)
  in
  Cmd.v
    (Cmd.info "converge" ~doc:"Sp versus trip count (start-up transient)")
    Term.(const run $ graph_t $ machine_t)

(* ------------------------------------------------------------------ *)
(* The executed program: verify, run-parallel, run-dist                *)

(* Shared by run-parallel and run-dist: resolve a loop from a named
   source, a file, or the Section-4 random generator. *)
let loop_sources =
  [
    ("fig7", Mimd_workloads.Fig7.source, "paper Figure 7 loop");
    ("fig1", Mimd_workloads.Fig1.source, "Figure 1 classification loop (loop-IR rendition)");
    ("ewf", Mimd_workloads.Elliptic.source, "elliptic wave filter (loop-IR rendition)");
    ("prefix", "for i = 1 to n { X[i] = X[i-1] + Y[i]; }", "first-order prefix sum");
  ]

let load_loop ~src ~file ~seed =
  match (file, seed) with
  | Some path, None -> analyze_file path
  | None, Some seed -> Ok (Depend.analyze (W.Random_loop.generate_loop ~seed ()))
  | None, None -> begin
    match List.find_opt (fun (n, _, _) -> n = src) loop_sources with
    | Some (_, s, _) -> Depend.of_source s
    | None ->
      Error
        (Printf.sprintf "unknown loop source %S; known: %s" src
           (String.concat ", " (List.map (fun (n, _, _) -> n) loop_sources)))
  end
  | Some _, Some _ -> Error "choose at most one of --file, --seed"

let loop_t =
  let src_t =
    let doc =
      "Named loop source: " ^ String.concat ", " (List.map (fun (n, _, _) -> n) loop_sources)
      ^ "."
    in
    Arg.(value & opt string "fig7" & info [ "src" ] ~docv:"NAME" ~doc)
  in
  Term.(const (fun src file seed -> load_loop ~src ~file ~seed) $ src_t $ file_t $ seed_t)

(* What run-parallel and run-dist execute: the audited compile's
   program, or its comm-opt rewrite under --comm-opt.  Real execution
   runs dependence distances 0 and 1 only, so a loop that needs
   unwinding stops before it is compiled. *)
let executable_program ?comm_opt ~(analysis : Depend.t) ~machine ~iterations () =
  Result.bind (Mimd_runtime.Lower.check_distances analysis.graph) @@ fun () ->
  Mimd_check.Fuzz.compile ?window:comm_opt ~graph:analysis.graph ~machine ~iterations ()
  |> Result.map (fun (c : Mimd_check.Fuzz.compiled) ->
         match c.optimized with
         | None -> (c.full, c.program, None)
         | Some (opt, stats) -> (c.full, opt, Some stats))

(* The fuzz oracle on one loop file, without the runtime legs; the
   summary line times the base program it checked on the simulator
   (values do not depend on timing). *)
let verify_cmd =
  let run file machine iterations mm =
    let checked =
      match file with
      | None -> Error "verify needs --file"
      | Some path ->
        Result.bind (analyze_file path) (fun analysis ->
            Mimd_check.Fuzz.check_case ~runtime:false
              (Mimd_check.Fuzz.make_case ~loop:analysis.Depend.loop
                 ~processors:machine.Config.processors ~comm:machine.Config.comm_estimate
                 ~iterations))
    in
    match checked with
    | Error e -> fail e
    | Ok program ->
      let links = links_of ~k:machine.Config.comm_estimate ~mm in
      let timing = Mimd_sim.Exec.run ~program ~links () in
      Format.printf
        "OK: parallel execution matches the sequential interpreter bit-for-bit@.\
         (%d iterations, %d PEs, makespan %d, %d messages)@."
        iterations program.Mimd_codegen.Program.processors timing.Mimd_sim.Exec.makespan
        timing.Mimd_sim.Exec.messages;
      0
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Run the fuzz oracle, without its runtime legs, on the program run-parallel and \
             run-dist execute for one loop file, and time that program on the simulator")
    Term.(const run $ file_t $ machine_t $ iterations_t $ mm_t)

let run_parallel_cmd =
  let run loop machine iterations timeout fault comm_opt trace =
    match loop with
    | Error e -> fail e
    | Ok analysis ->
      guard_broken_pipe @@ fun () ->
      with_trace trace @@ fun () ->
      match executable_program ?comm_opt ~analysis ~machine ~iterations () with
      | Error e -> fail e
      | Ok (full, program, comm_stats) ->
        Option.iter print_comm_stats comm_stats;
        let flat = analysis.Depend.loop in
        (* Deterministic fault injection, exercising the failure exits:
           drop-send removes one message after validation (the run must
           stall), skew-init perturbs only the runtime's initial
           memory (the value differential must report a mismatch). *)
        let inject p =
          match fault with
          | `None | `Skew_init | `Stale_slot -> Ok p
          | `Drop_send ->
            let dropped = ref false in
            let programs =
              Array.map
                (List.filter (fun instr ->
                     match instr with
                     | Mimd_codegen.Program.Send _ when not !dropped ->
                       dropped := true;
                       false
                     | _ -> true))
                (Mimd_codegen.Program.to_instrs p)
            in
            if !dropped then Ok (Mimd_codegen.Program.of_instrs p.graph programs)
            else Error "--inject-fault drop-send: the program sends no messages"
        in
        match inject program with
        | Error e -> fail e
        | Ok program ->
        let run_init =
          match fault with
          | `Skew_init -> Some (fun a i -> Mimd_loop_ir.Interp.init a i +. 1.0)
          | `None | `Drop_send | `Stale_slot -> None
        in
        let run_backend () =
          let lowered = Mimd_runtime.Lower.run ~loop:flat ~program () in
          let lowered =
            if fault = `Stale_slot then Mimd_runtime.Lower.sabotage_stale_slot lowered
            else lowered
          in
          Mimd_runtime.Exec_compiled.run ?init:run_init ~timeout ~lowered ~loop:flat
            ~program ()
        in
        match run_backend () with
        | exception Mimd_runtime.Watchdog.Runtime_deadlock stall ->
          fail ("runtime deadlock\n" ^ Mimd_runtime.Watchdog.describe stall)
        | exception Invalid_argument m -> fail m
        | outcome -> begin
          match
            Mimd_runtime.Value_run.check_against_sequential ~loop:flat ~iterations outcome
          with
          | Error e ->
            Format.printf "MISMATCH vs sequential interpreter: %s@." e;
            1
          | Ok () ->
            Format.printf
              "OK: %d real domain(s) computed all %d iteration(s) bit-identically to the \
               sequential interpreter@."
              outcome.Mimd_runtime.Value_run.domains iterations;
            Format.printf "  messages: %d, wall-clock makespan: %.0f us@."
              outcome.Mimd_runtime.Value_run.messages
              (outcome.Mimd_runtime.Value_run.makespan_ns /. 1e3);
            Array.iteri
              (fun j ns -> Format.printf "  domain %d finished at %.0f us@." j (ns /. 1e3))
              outcome.Mimd_runtime.Value_run.domain_wall_ns;
            let links = Mimd_sim.Links.fixed machine.Config.comm_estimate in
            let sim = Mimd_sim.Exec.run ~program ~links () in
            Format.printf "  simulated makespan: %d cycle(s) (static schedule: %d)@."
              sim.Mimd_sim.Exec.makespan
              (Full_sched.parallel_time full);
            0
        end
  in
  let timeout_t =
    Arg.(value & opt positive_float 5.0 & info [ "watchdog-timeout" ] ~docv:"SECONDS"
           ~doc:"Declare a runtime deadlock when no domain has reported for this long. A \
                 domain reports once, when it stops; any run the pipeline compiles takes \
                 milliseconds.")
  in
  let fault_t =
    let faults =
      [
        ("none", `None);
        ("drop-send", `Drop_send);
        ("skew-init", `Skew_init);
        ("stale-slot", `Stale_slot);
      ]
    in
    Arg.(value & opt (enum faults) `None & info [ "inject-fault" ] ~docv:"FAULT"
           ~doc:"Deliberately sabotage the run to demonstrate the failure exits: \
                 $(b,drop-send) removes one message (a stall), $(b,skew-init) \
                 perturbs the runtime's initial memory (value mismatch), $(b,stale-slot) \
                 rewires one compiled operand to an unwritten slot (value mismatch).")
  in
  Cmd.v
    (Cmd.info "run-parallel"
       ~doc:"Execute a compiled loop on real OCaml 5 domains (one per scheduled processor) \
             and check the values against the sequential interpreter")
    Term.(
      const run $ loop_t $ machine_t $ iterations_t $ timeout_t $ fault_t $ comm_opt_t
      $ trace_t)

let check_cmd =
  let module V = Mimd_check.Validate in
  let module F = Mimd_check.Fuzz in
  let check_graph ~name ~machine ~iterations ~broken g =
    let full = Full_sched.run ~graph:g ~machine ~iterations () in
    let report =
      if broken then begin
        (* Sabotage the schedule on purpose, then check it: the report
           must show the violation and the exit code must be non-zero. *)
        match V.break_dependence full.Full_sched.schedule with
        | None ->
          {
            V.issues = [ V.Pattern_shape "no dependence constraint available to break" ];
            counters = [];
          }
        | Some bad -> V.schedule bad
      end
      else V.full full
    in
    Printf.printf "== %s (p=%d, k=%d, n=%d)%s ==\n" name machine.Config.processors
      machine.Config.comm_estimate iterations
      (if broken then " [deliberately broken]" else "");
    print_string (V.render ~names:(Graph.name g) report);
    V.ok report
  in
  let run workload file seed all machine iterations broken fuzz fuzz_seed fault fuzz_out
      no_runtime replay =
    match (replay, fuzz) with
    | Some path, _ -> begin
      match F.load_case path with
      | Error e -> fail e
      | Ok case -> begin
        match F.check_case ~fault ~runtime:(not no_runtime) case with
        | Ok _ ->
          Printf.printf "replay %s: all checks passed\n" path;
          0
        | Error e ->
          Printf.printf "replay %s: FAILED - %s\n" path e;
          1
      end
    end
    | None, Some count ->
      let outcome =
        F.run { F.count; seed = fuzz_seed; fault; runtime = not no_runtime; out_dir = fuzz_out }
      in
      print_endline (F.describe outcome);
      (match outcome with F.Passed _ -> 0 | F.Failed _ -> 1)
    | None, None ->
      if all || (workload = None && file = None && seed = None) then begin
        let oks =
          List.map
            (fun (name, g, _) -> check_graph ~name ~machine ~iterations ~broken (g ()))
            workloads
        in
        if List.for_all Fun.id oks then 0 else 1
      end
      else
        with_graph (load_graph ~workload ~file ~seed) (fun g ->
            let name = Option.value ~default:"input" workload in
            if check_graph ~name ~machine ~iterations ~broken g then 0 else 1)
  in
  let all_t =
    Arg.(value & flag & info [ "all" ] ~doc:"Check every built-in workload (the default \
                                             when no input is given).")
  in
  let broken_t =
    Arg.(value & flag & info [ "broken" ]
           ~doc:"Deliberately violate one dependence before checking, to demonstrate \
                 detection; the exit code is then non-zero.")
  in
  let fuzz_t =
    Arg.(value & opt (some non_negative_int) None & info [ "fuzz" ] ~docv:"N"
           ~doc:"Instead of checking workloads, drive N random loops and machine shapes \
                 through the whole pipeline, comm-opt rewrite included, with every stage \
                 audited and every instance value compared against the sequential \
                 interpreter: inline, on spawned processes and on domains.  Each case \
                 draws its own fan-out, machine shape (p, k), trip count, comm-opt window \
                 and transport for the process team (Unix sockets or TCP).")
  in
  let fuzz_seed_t =
    Arg.(value & opt int 0 & info [ "fuzz-seed" ] ~docv:"SEED"
           ~doc:"Generator seed for --fuzz (same seed, same cases).")
  in
  let inject_fault_t =
    let faults =
      [
        ("none", F.No_fault);
        ("hasten-dependent", F.Hasten_dependent);
        ("keep-extra-send", F.Keep_extra_send);
      ]
    in
    Arg.(value & opt (enum faults) F.No_fault & info [ "inject-fault" ] ~docv:"FAULT"
           ~doc:"Sabotage every --fuzz and --replay case to prove the oracle has teeth: \
                 $(b,hasten-dependent) moves one dependent instance a cycle too early \
                 after scheduling; $(b,keep-extra-send) makes the comm-opt rewrite keep \
                 one frame's Send but drop its Recv.  The independent validator must \
                 catch either (non-zero exit).")
  in
  let fuzz_out_t =
    Arg.(value & opt (some string) None & info [ "fuzz-out" ] ~docv:"DIR"
           ~doc:"Dump the shrunk counterexample of a fuzz failure as a replayable \
                 loop-IR file in this directory (created if missing).")
  in
  let no_runtime_t =
    Arg.(value & flag & info [ "no-runtime" ]
           ~doc:"Skip the socket and real-domain (OCaml 5) execution in --fuzz/--replay; \
                 the inline value legs still run.")
  in
  let replay_t =
    Arg.(value & opt (some string) None & info [ "replay" ] ~docv:"FILE"
           ~doc:"Re-run the oracle on a dumped counterexample file.")
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Independently validate schedules, patterns and message protocols \
             (dependences, exclusivity, re-rolling, deadlock freedom), or fuzz the \
             whole pipeline against the sequential interpreter")
    Term.(
      const run $ workload_t $ file_t $ seed_t $ all_t $ machine_t $ iterations_t $ broken_t
      $ fuzz_t $ fuzz_seed_t $ inject_fault_t $ fuzz_out_t $ no_runtime_t $ replay_t)

(* ------------------------------------------------------------------ *)
(* The compile service: serve (stdio / Unix socket) and batch           *)

let jobs_t =
  let doc =
    "Worker domains in the compile pool (default: the runtime's recommended domain \
     count, capped at 8)."
  in
  Arg.(value & opt (some positive_int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

(* --cache-dir with --no-disk-cache: the disk tier's directory, or
   [None] when it is off. *)
let cache_dir_t =
  let dir =
    let doc =
      "Directory of the persistent schedule cache (default: \\$XDG_CACHE_HOME/mimdloop or \
       ~/.cache/mimdloop)."
    in
    Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let off =
    Arg.(value & flag & info [ "no-disk-cache" ] ~doc:"Disable the on-disk schedule cache.")
  in
  Term.(
    const (fun dir off ->
        if off then None
        else Some (Option.value ~default:(Mimd_server.Disk_cache.default_dir ()) dir))
    $ dir $ off)

let validate_sched_t =
  Arg.(value & flag & info [ "validate" ]
         ~doc:"Audit every freshly computed schedule with the independent checker \
               (mimd_check) before it is cached; rejected schedules produce a structured \
               error instead of an entry.")

let queue_depth_t =
  Arg.(value & opt positive_int 64 & info [ "queue-depth" ] ~docv:"N"
         ~doc:"Bound on the work queue; a full queue blocks readers and accepts \
               (backpressure).")

(* The serve stack of serve and batch, built from their shared pool
   and cache options. *)
let server_t =
  Term.(
    const (fun jobs queue_depth cache_dir validate ~comm_opt ->
        let jobs = Option.value jobs ~default:(Server.default_jobs ~cap:8) in
        Server.make ?comm_opt ?cache_dir ~validate ~jobs ~queue_depth ())
    $ jobs_t $ queue_depth_t $ cache_dir_t $ validate_sched_t)

let serve_cmd =
  let run stdio socket make_server comm_opt trace =
    with_streaming_trace trace @@ fun () ->
    let server = make_server ~comm_opt in
    let code =
      match (stdio, socket) with
      | true, None -> Server.serve_stdio server
      | false, Some path -> Server.serve_socket server ~path
      | true, Some _ -> fail "choose one of --stdio, --socket"
      | false, None -> fail "serve needs --stdio or --socket PATH"
    in
    Server.shutdown server;
    code
  in
  let stdio_t =
    Arg.(value & flag & info [ "stdio" ]
           ~doc:"Serve newline-delimited JSON on stdin/stdout (one request per line; \
                 replies carry the request id and may be reordered).")
  in
  let socket_t =
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"Serve the same protocol on a Unix domain socket bound at $(docv).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Long-running schedule-compilation service: a pool of OCaml 5 domains behind \
             a two-tier (memory + disk) schedule cache, speaking newline-delimited JSON")
    Term.(const run $ stdio_t $ socket_t $ server_t $ comm_opt_t $ trace_t)

let batch_cmd =
  let run paths make_server machine iterations deadline_ms =
    let server = make_server ~comm_opt:None in
    let code = Server.batch server ~machine ~iterations ?deadline_ms ~paths () in
    Server.shutdown server;
    code
  in
  let paths_t =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"PATH"
           ~doc:"Loop-IR files, or directories searched recursively for *.loop files.")
  in
  let deadline_t =
    Arg.(value & opt (some positive_float) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-file compile deadline; a blown deadline is a structured error (and \
                 a non-zero exit).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Compile and report a whole corpus of loops in parallel on the compile \
             service's worker pool (same caches as serve, no socket); exits non-zero if \
             any file fails")
    Term.(const run $ paths_t $ server_t $ machine_t $ iterations_t $ deadline_t)

(* ------------------------------------------------------------------ *)
(* The socket backend: run-dist and the sharded serve fleet (route)    *)

let run_dist_cmd =
  let module Runner = Mimd_dist.Runner in
  let module VR = Mimd_runtime.Value_run in
  let run loop machine iterations timeout probe vs_domains fault tcp connect respawn auto_k
      comm_opt trace =
    guard_broken_pipe @@ fun () ->
    with_trace trace @@ fun () ->
    (* The TCP transport is implied by anything that needs it: an
       explicit roster, or the handshake fault (which only exists on
       the rendezvous path). *)
    let want_tcp = tcp || Option.is_some connect || fault = `Handshake_fp in
    let roster =
      match connect with
      | None -> Ok None
      | Some spec ->
        let rec go acc = function
          | [] -> Ok (Some (List.rev acc))
          | s :: rest -> (
            match Mimd_dist.Mesh_tcp.addr_of_string s with
            | Ok a -> go (a :: acc) rest
            | Error e -> Error e)
        in
        go [] (String.split_on_char ',' spec)
    in
    match roster with
    | Error e -> fail ("--connect: " ^ e)
    | Ok roster ->
    let transport =
      if not want_tcp then None
      else
        Some
          (Runner.Tcp
             {
               roster;
               handshake_fault = (if fault = `Handshake_fp then Some 0 else None);
             })
    in
    if probe then
      print_string
        (Mimd_dist.Linkprobe.render ~assumed_k:machine.Config.comm_estimate
           (Mimd_dist.Linkprobe.probe ~procs:(max 2 machine.Config.processors) ()));
    match loop with
    | Error e -> fail e
    | Ok analysis -> (
      let machine = if auto_k then auto_k_machine machine else machine in
      let sabotage =
        match fault with
        | `None | `Handshake_fp -> None
        | `Kill_child ->
          (* Deterministic mid-run sabotage: SIGKILL the PE0 child
             right after the collective start; the supervisor must
             surface a structured child-exit error and reap the
             rest.  One-shot, so --respawn can demonstrate recovery:
             a kill on every attempt would just exhaust any budget. *)
          let armed = ref true in
          Some
            (fun pids ->
              if !armed then begin
                armed := false;
                try Unix.kill pids.(0) Sys.sigkill with Unix.Unix_error _ -> ()
              end)
      in
      (* Compile, run on a team, compare against the sequential
         interpreter.  A roster the mesh cannot bind (wrong length, a
         host that does not resolve, an address that is not local)
         fails in the parent before any member starts. *)
      let loop = analysis.Depend.loop in
      match
        Result.bind (executable_program ?comm_opt ~analysis ~machine ~iterations ())
          (fun (_full, program, stats) ->
            match Runner.run ?sabotage ?transport ~respawn ~timeout ~loop ~program () with
            | exception Runner.Dist_error f -> Error ("dist failure: " ^ Runner.describe f)
            | exception Invalid_argument m -> Error m
            | outcome -> (
              (* One call: the team has no further use. *)
              Runner.shutdown ();
              match VR.check_against_sequential ~loop ~iterations outcome with
              | Error e -> Error ("MISMATCH vs sequential interpreter: " ^ e)
              | Ok () -> Ok (program, stats, outcome)))
      with
      | Error e -> fail e
      | Ok (program, stats, outcome) ->
        Option.iter print_comm_stats stats;
        Format.printf
          "OK: %d spawned process(es)%s computed all %d iteration(s) bit-identically \
           to the sequential interpreter@."
          outcome.VR.domains
          (if want_tcp then " over TCP" else "")
          iterations;
        Format.printf "  messages: %d, wall-clock makespan: %.0f us@." outcome.VR.messages
          (outcome.VR.makespan_ns /. 1e3);
        Array.iteri
          (fun j ns -> Format.printf "  process %d finished at %.0f us@." j (ns /. 1e3))
          outcome.VR.domain_wall_ns;
        if not vs_domains then 0
        else begin
          match Mimd_runtime.Exec_compiled.run ~loop ~program () with
          | exception Mimd_runtime.Watchdog.Runtime_deadlock stall ->
            fail
              ("runtime deadlock in the domain comparison\n"
              ^ Mimd_runtime.Watchdog.describe stall)
          | domains_outcome ->
            if VR.same_values domains_outcome outcome then begin
              Format.printf
                "  vs domains: bit-identical (%d instance value(s), %d final cell(s))@."
                (VR.instance_count outcome.VR.instances)
                (Mimd_loop_ir.Interp.written_count outcome.VR.memory);
              0
            end
            else begin
              Format.printf "MISMATCH between socket and domain backends@.";
              1
            end
        end)
  in
  let timeout_t =
    Arg.(value & opt positive_float 5.0 & info [ "timeout" ] ~docv:"SECONDS"
           ~doc:"Declare the distributed run stalled after this long without any child \
                 report (the rule run-parallel's --watchdog-timeout applies to domains).")
  in
  let probe_t =
    Arg.(value & flag & info [ "probe" ]
           ~doc:"First measure real per-link round-trip cost over the socket mesh and \
                 report the effective k next to the scheduler's assumed k.")
  in
  let vs_domains_t =
    Arg.(value & flag & info [ "vs-domains" ]
           ~doc:"Also execute on the in-process domain runtime and require bit-identical \
                 instance values.")
  in
  let fault_t =
    let faults =
      [
        ("none", `None); ("kill-child", `Kill_child);
        ("handshake-fingerprint", `Handshake_fp);
      ]
    in
    Arg.(value & opt (enum faults) `None & info [ "inject-fault" ] ~docv:"FAULT"
           ~doc:"Deliberately sabotage the run to demonstrate the failure exits: \
                 $(b,kill-child) SIGKILLs one child mid-run (the supervisor must report \
                 a structured child-exit error and reap every process); \
                 $(b,handshake-fingerprint) makes one PE present a corrupted schedule \
                 fingerprint at the TCP rendezvous (implies $(b,--tcp); the run must \
                 fail structurally before any value is computed).")
  in
  let tcp_t =
    Arg.(value & flag & info [ "tcp" ]
           ~doc:"Use the TCP transport for the processor mesh: per-PE loopback \
                 listeners on ephemeral ports, dialed by the members with a \
                 fingerprint-checked rendezvous handshake, TCP_NODELAY on every link.  \
                 Values are bit-identical to the Unix-socketpair transport.")
  in
  let connect_t =
    Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT[,HOST:PORT...]"
           ~doc:"Pin the TCP rendezvous roster: PE $(i,i) listens on the $(i,i)-th \
                 address (the list length must equal $(b,-p)).  Implies $(b,--tcp).  \
                 An empty host means loopback.  This is the multi-host building block \
                 documented in docs/DISTRIBUTED.md.")
  in
  let respawn_t =
    Arg.(value & opt non_negative_int 0 & info [ "respawn" ] ~docv:"N"
           ~doc:"Retry the whole run up to $(docv) times after a child crash or stall \
                 (a run is a deterministic pure function, so the retry is sound; every \
                 failure path reaps all children first).  Child-side errors are never \
                 retried — they recur deterministically.")
  in
  Cmd.v
    (Cmd.info "run-dist"
       ~doc:"Execute a compiled loop on spawned OS processes connected by Unix-domain \
             sockets or TCP (one process per scheduled processor) and check the values \
             against the sequential interpreter")
    Term.(
      const run $ loop_t $ machine_t $ iterations_t $ timeout_t $ probe_t $ vs_domains_t
      $ fault_t $ tcp_t $ connect_t $ respawn_t $ auto_k_t $ comm_opt_t $ trace_t)

let route_cmd =
  let run workers socket worker_dir max_inflight jobs queue_depth cache_dir validate trace
      respawn =
    (* Streaming trace: the router streams to its own sink; each
       worker it spawns turns tracing on and opens its own file. *)
    if Option.is_some trace then Mimd_obs.Trace.enable ();
    let worker_dir = Option.value ~default:(Filename.dirname socket) worker_dir in
    let code =
      Mimd_dist.Router.serve
        {
          Mimd_dist.Router.workers;
          socket;
          worker_dir;
          max_inflight;
          jobs;
          queue_depth;
          cache_dir;
          validate;
          trace;
          respawn;
        }
    in
    if Option.is_some trace then Mimd_obs.Trace.disable ();
    code
  in
  let workers_t =
    Arg.(value & opt positive_int 2 & info [ "workers" ] ~docv:"N"
           ~doc:"Size of the serve fleet: $(docv) spawned worker processes, each a full \
                 compile service on its own Unix socket.")
  in
  let socket_t =
    Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"PATH"
           ~doc:"The router's own Unix-domain socket (the protocol is identical to \
                 $(b,serve --socket)).")
  in
  let worker_dir_t =
    Arg.(value & opt (some string) None & info [ "worker-dir" ] ~docv:"DIR"
           ~doc:"Directory for the per-worker sockets (default: the router socket's \
                 directory).")
  in
  let max_inflight_t =
    Arg.(value & opt positive_int 64 & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Admission control: bound on compile requests in flight across the \
                 fleet; the excess is shed with a structured $(b,overload) error.")
  in
  let respawn_t =
    Arg.(value & opt non_negative_int 0 & info [ "respawn" ] ~docv:"N"
           ~doc:"Supervise the fleet: the router respawns a dead worker up to $(docv) \
                 times (per worker).  A fleet-wide circuit breaker refuses respawn \
                 storms.  0 disables supervision.")
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Sharded serve fleet: a consistent-hash router in front of N spawned serve \
             workers sharing one disk cache, with per-worker health, failover, respawn \
             supervision and bounded-in-flight admission control")
    Term.(
      const run $ workers_t $ socket_t $ worker_dir_t $ max_inflight_t $ jobs_t
      $ queue_depth_t $ cache_dir_t $ validate_sched_t $ trace_t $ respawn_t)

let report_cmd =
  let run output iterations =
    let text = Mimd_experiments.Report.generate ~iterations () in
    (match output with
    | None -> print_string text
    | Some path -> Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text));
    0
  in
  let out_t =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Write the report here instead of stdout.")
  in
  Cmd.v
    (Cmd.info "report" ~doc:"Generate the full markdown reproduction report")
    Term.(const run $ out_t $ iterations_t)

let procs_cmd =
  let run input k max_procs =
    with_graph input (fun g ->
        match
          Mimd_core.Auto_procs.search ~max_processors:max_procs ~graph:(cyclic_core g)
            ~comm_estimate:k ()
        with
        | t ->
          print_string (Mimd_core.Auto_procs.render t);
          0
        | exception Cyclic_sched.No_pattern m -> fail m)
  in
  let max_t =
    Arg.(value & opt positive_int 8 & info [ "max" ] ~docv:"P"
           ~doc:"Largest processor count to try.")
  in
  Cmd.v
    (Cmd.info "procs" ~doc:"Find the cheapest processor count for the Cyclic core")
    Term.(const run $ graph_t $ k_t $ max_t)

let fingerprint_cmd =
  let run workload file seed files machine iterations comm_opt =
    (* With --comm-opt the digest pins the optimized programs, and the
       line carries the message-count delta the rewrite bought, so the
       golden corpus doubles as a reduction table. *)
    let fp g =
      Mimd_check.Fuzz.compile ?window:comm_opt ~graph:g ~machine ~iterations ()
      |> Result.map (fun (c : Mimd_check.Fuzz.compiled) ->
             match c.optimized with
             | None -> Full_sched.output_fingerprint c.full
             | Some (opt, (stats : Comm_opt.stats)) ->
               Printf.sprintf "%s  %d->%d" (Comm_opt.fingerprint opt) stats.messages_before
                 stats.messages_after)
    in
    if files <> [] then begin
      let one path =
        match Result.bind (analyze_file path) (fun a -> fp a.Depend.graph) with
        | Ok h ->
          Printf.printf "%s  %s\n" h (Filename.basename path);
          true
        | Error e ->
          prerr_endline ("mimdloop: " ^ path ^ ": " ^ e);
          false
      in
      if List.for_all Fun.id (List.map one (List.sort compare files)) then 0 else 1
    end
    else
      with_graph (load_graph ~workload ~file ~seed) (fun g ->
          let label =
            match (workload, file, seed) with
            | Some w, _, _ -> w
            | _, Some f, _ -> Filename.basename f
            | _, _, Some s -> Printf.sprintf "seed-%d" s
            | _ -> "input"
          in
          match fp g with
          | Ok h ->
            Printf.printf "%s  %s\n" h label;
            0
          | Error e -> fail e)
  in
  let files_t =
    Arg.(value & pos_all string [] & info [] ~docv:"FILES"
           ~doc:"Loop source files to fingerprint (sorted; one line each).")
  in
  Cmd.v
    (Cmd.info "fingerprint"
       ~doc:"Print a canonical 64-bit digest of the compiled schedule, for golden diffs")
    Term.(
      const run $ workload_t $ file_t $ seed_t $ files_t $ machine_t $ iterations_t
      $ comm_opt_t)

let trace_cmd =
  let run pos_file workload file seed output machine iterations mm =
    let file = match (pos_file, file) with Some p, None -> Some p | _, f -> f in
    with_graph (load_graph ~workload ~file ~seed) (fun g ->
        with_trace (Some output) @@ fun () ->
        match Mimd_check.Fuzz.compile ~graph:g ~machine ~iterations () with
        | Error e -> fail e
        | Ok { full; program; _ } ->
          let links = links_of ~k:machine.Config.comm_estimate ~mm in
          let out = Mimd_sim.Exec.run ~program ~links () in
          Format.printf "compiled: makespan %d on %d processor(s); simulated %d@."
            (Full_sched.parallel_time full)
            (Full_sched.total_processors full)
            out.Mimd_sim.Exec.makespan;
          0)
  in
  let pos_file_t =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Loop source file (equivalent to --file).")
  in
  let out_t =
    Arg.(value & opt string "trace.json" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Where to write the Chrome trace_event JSON.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Compile a loop (and simulate the result) with tracing on, writing every \
             pipeline stage as a Chrome trace_event JSON file for Perfetto")
    Term.(
      const run $ pos_file_t $ workload_t $ file_t $ seed_t $ out_t $ machine_t
      $ iterations_t $ mm_t)

let random_cmd =
  let run seed =
    let g = W.Random_loop.generate ~seed () in
    Format.printf "%a@." Graph.pp g;
    let cls = Classify.run g in
    Format.printf "%a@." (Classify.pp ~names:(Graph.name g)) cls;
    0
  in
  let seed_req = Arg.(required & opt (some int) None & info [ "seed" ] ~docv:"SEED" ~doc:"Seed.") in
  Cmd.v
    (Cmd.info "random" ~doc:"Show a Section-4 random loop and its classification")
    Term.(const run $ seed_req)

let main_cmd =
  let doc = "pattern-based scheduling of non-vectorizable loops for MIMD machines" in
  let info = Cmd.info "mimdloop" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      list_cmd;
      classify_cmd;
      schedule_cmd;
      doacross_cmd;
      codegen_cmd;
      simulate_cmd;
      figures_cmd;
      table1_cmd;
      random_cmd;
      bounds_cmd;
      stats_cmd;
      extensions_cmd;
      gantt_cmd;
      procs_cmd;
      fingerprint_cmd;
      export_cmd;
      converge_cmd;
      verify_cmd;
      trace_cmd;
      run_parallel_cmd;
      run_dist_cmd;
      check_cmd;
      serve_cmd;
      route_cmd;
      batch_cmd;
      report_cmd;
    ]

(* The fuzz oracle's socket leg: mimd_check sits below mimd_dist
   in the dependency graph, so the spawned-process executor is injected
   here, where both are visible. *)
let () =
  Mimd_check.Fuzz.socket_backend :=
    Some
      (fun ~transport ~loop ~program ->
        let transport =
          match transport with
          | Mimd_check.Fuzz.Unix_sockets -> Mimd_dist.Runner.Unix_sockets
          | Mimd_check.Fuzz.Tcp -> Mimd_dist.Runner.Tcp { roster = None; handshake_fault = None }
        in
        match Mimd_dist.Runner.run ~transport ~timeout:30.0 ~loop ~program () with
        | exception Mimd_dist.Runner.Dist_error f ->
          Error ("dist failure: " ^ Mimd_dist.Runner.describe f)
        | outcome -> Ok outcome.Mimd_runtime.Value_run.instances)

(* A reader that stops consuming (mimdloop ... | head) breaks stdout;
   with SIGPIPE ignored that surfaces as Sys_error EPIPE from the
   at_exit flush of the std formatter, turning a clean exit into
   "Fatal error".  If stdout is already broken, drain the remaining
   buffered output into /dev/null so the exit code survives. *)
let () =
  let code = Cmd.eval' main_cmd in
  (try
     Format.pp_print_flush Format.std_formatter ();
     flush stdout
   with Sys_error _ -> stdout_to_null ());
  exit code
