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
  | None, Some path, None -> begin
    match In_channel.with_open_text path In_channel.input_all with
    | src -> begin
      match Mimd_loop_ir.Depend.analyze_string src with
      | a -> Ok a.Mimd_loop_ir.Depend.graph
      | exception Mimd_loop_ir.Parser.Error msg -> Error ("parse error: " ^ msg)
      | exception Mimd_loop_ir.Lexer.Error { position; message } ->
        Error (Printf.sprintf "lex error at %d: %s" position message)
    end
    | exception Sys_error e -> Error e
  end
  | None, None, Some seed -> begin
    match W.Random_loop.generate_cyclic ~seed () with
    | Some g -> Ok g
    | None -> Error (Printf.sprintf "seed %d yields an empty Cyclic subset" seed)
  end
  | None, None, None -> Error "choose an input: --workload, --file or --seed"
  | _ -> Error "choose exactly one of --workload, --file, --seed"

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

(* Counts that must be at least 1: cmdliner reports anything else as
   a usage error instead of the pipeline raising on it later. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ -> Error (`Msg (Printf.sprintf "%s is not a positive integer" s))
    | None -> Error (`Msg (Printf.sprintf "invalid value '%s', expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let processors_t =
  let doc = "Processors for the Cyclic core." in
  Arg.(value & opt positive_int 2 & info [ "p"; "processors" ] ~docv:"P" ~doc)

let k_t =
  let doc = "Estimated communication cost (the paper's k)." in
  Arg.(value & opt int 2 & info [ "k" ] ~docv:"K" ~doc)

let iterations_t =
  let doc = "Loop trip count for measurements." in
  Arg.(value & opt positive_int 100 & info [ "n"; "iterations" ] ~docv:"N" ~doc)

let machine_of processors k = Config.make ~processors ~comm_estimate:k

let needs_unwinding =
  "loop needed unwinding (some dependence distance > 1); real execution supports \
   distances in {0, 1} only"

(* ------------------------------------------------------------------ *)
(* --auto-k: schedule at the measured k                                *)

let auto_k_t =
  Arg.(value & flag & info [ "auto-k" ]
         ~doc:"Measure k first: fork a live link probe over the socket mesh and schedule \
               at the measured k (the dearest link's effective k, rounded, at least 1) \
               instead of the assumed $(b,-k).  Needs $(b,-p) >= 2.  Probing forks, so \
               it always runs before any domain or thread is spawned.")

(* Fork-first: probe the mesh once and price the machine at the
   measured scalar k.  Must run before the caller spawns any domain or
   thread.  A single processor has no link to probe, so the assumed
   machine stands. *)
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

let with_graph workload file seed f =
  match load_graph ~workload ~file ~seed with
  | Error e ->
    prerr_endline ("mimdloop: " ^ e);
    1
  | Ok g -> f g

(* ------------------------------------------------------------------ *)
(* Tracing                                                             *)

let trace_t =
  let doc =
    "Capture an execution trace of this command and write it to $(docv) as Chrome \
     trace_event JSON (load it in Perfetto or chrome://tracing).  See \
     docs/OBSERVABILITY.md for the span taxonomy."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

(* Commands that print incrementally ([Format]'s [@.] flushes at every
   line) can hit a stdout the reader already closed (mimdloop ... |
   head): with SIGPIPE ignored the flush raises [Sys_error "Broken
   pipe"] mid-command, which cmdliner reports as an internal error.  A
   reader that stopped consuming is not an error — drop the rest of
   the output and exit cleanly, like the at_exit guard below. *)
let guard_broken_pipe f =
  try f ()
  with Sys_error msg when msg = "Broken pipe" -> (
    try
      let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
      Unix.dup2 null Unix.stdout;
      Unix.close null;
      0
    with Unix.Unix_error _ -> 0)

(* Run [f] with tracing on when a trace file was requested; the export
   happens after [f] even when it fails, so partial traces of failing
   runs are still written. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
    Mimd_obs.Trace.clear ();
    Mimd_obs.Trace.enable ();
    let code = Fun.protect ~finally:Mimd_obs.Trace.disable f in
    let dropped = Mimd_obs.Trace.dropped () in
    if dropped > 0 then
      Printf.eprintf "mimdloop: warning: %d trace event(s) dropped (buffer full)\n%!"
        dropped;
    let json = Mimd_obs.Trace.export () in
    (match
       Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc json)
     with
    | () ->
      Printf.eprintf "mimdloop: trace written to %s\n%!" path;
      code
    | exception Sys_error e ->
      prerr_endline ("mimdloop: " ^ e);
      1)

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
      prerr_endline ("mimdloop: " ^ e);
      1
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
(* Commands                                                            *)

let list_cmd =
  let run () =
    List.iter (fun (n, _, d) -> Printf.printf "%-10s %s\n" n d) workloads;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the built-in workloads") Term.(const run $ const ())

let classify_cmd =
  let run workload file seed dot =
    with_graph workload file seed (fun g ->
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
    Term.(const run $ workload_t $ file_t $ seed_t $ dot_t)

let comm_opt_t =
  Arg.(value & flag & info [ "comm-opt" ]
         ~doc:"Rewrite the generated programs with the synchronization-minimizing pass: \
               elide messages whose ordering is transitively implied by retained \
               messages (forwarding their values on the retained frames) and coalesce \
               per-link messages into multi-tag frames.")

let comm_window_t =
  Arg.(value & opt int 4 & info [ "comm-window" ] ~docv:"W"
         ~doc:"Iteration span a coalesced frame may cover under $(b,--comm-opt): \
               members satisfy max iter - min iter < $(docv); 0 disables coalescing.")

(* Shared by schedule/run-parallel/run-dist: optimize a generated
   program, have the independent token simulation accept it, and
   report the message/makespan deltas the rewrite bought. *)
let optimize_program ~window program =
  match Mimd_codegen.Comm_opt.run ~window program with
  | exception Failure m -> Error ("comm-opt: " ^ m)
  | exception Invalid_argument m -> Error ("comm-opt: " ^ m)
  | opt, stats -> (
    match Mimd_check.Validate.program_validator opt with
    | Error m -> Error ("optimized program rejected by the independent validator: " ^ m)
    | Ok () -> Ok (opt, stats))

let print_comm_stats (stats : Mimd_codegen.Comm_opt.stats) =
  Format.printf
    "comm-opt: messages %d -> %d (elided %d, coalesced %d, %d forwarded value(s))@."
    stats.Mimd_codegen.Comm_opt.messages_before stats.Mimd_codegen.Comm_opt.messages_after
    stats.Mimd_codegen.Comm_opt.elided stats.Mimd_codegen.Comm_opt.coalesced
    stats.Mimd_codegen.Comm_opt.forwarded_values

let schedule_cmd =
  let run workload file seed processors k iterations validate auto_k comm_opt comm_window
      trace =
    with_graph workload file seed (fun g ->
        with_trace trace @@ fun () ->
        (* This command spawns no domain, so the probe's fork is safe
           anywhere; it runs first regardless. *)
        let machine = machine_of processors k in
        let machine = if auto_k then auto_k_machine machine else machine in
        match Full_sched.run ~validate ~graph:g ~machine ~iterations () with
        | exception Full_sched.Invalid_schedule m ->
          prerr_endline ("mimdloop: schedule rejected by the independent validator: " ^ m);
          1
        | full ->
        print_string (Full_sched.report full);
        (match full.Full_sched.pattern with
        | Some p -> Format.printf "%a@." Pattern.pp p
        | None -> ());
        print_string (Schedule.render_grid ~max_cycles:60 full.Full_sched.schedule);
        let seq = Mimd_doacross.Sequential.time g ~iterations in
        let par = Full_sched.parallel_time full in
        Format.printf "sequential %d, parallel %d -> percentage parallelism %.1f@." seq par
          (Mimd_core.Metrics.percentage_parallelism ~sequential:seq ~parallel:par);
        if not comm_opt then 0
        else begin
          (* Re-price the schedule's communication term: same programs,
             fewer frames, simulated at the same per-message cost k. *)
          let program = Mimd_codegen.From_schedule.run full.Full_sched.schedule in
          match optimize_program ~window:comm_window program with
          | Error e ->
            prerr_endline ("mimdloop: " ^ e);
            1
          | Ok (opt, stats) ->
            print_comm_stats stats;
            let k = machine.Config.comm_estimate in
            let links = Mimd_sim.Links.fixed k in
            let before = Mimd_sim.Exec.run ~program ~links () in
            let after = Mimd_sim.Exec.run ~program:opt ~links () in
            Format.printf
              "comm-opt: simulated makespan %d -> %d at k=%d (comm cycles %d -> %d)@."
              before.Mimd_sim.Exec.makespan after.Mimd_sim.Exec.makespan k
              before.Mimd_sim.Exec.comm_cycles after.Mimd_sim.Exec.comm_cycles;
            0
        end)
  in
  let validate_t =
    Arg.(value & flag & info [ "validate" ]
           ~doc:"Audit the finished schedule with the independent checker (mimd_check) \
                 before reporting; exit non-zero if it is rejected.")
  in
  Cmd.v
    (Cmd.info "schedule" ~doc:"Run the full pattern-based scheduling pipeline (paper Fig. 6)")
    Term.(
      const run $ workload_t $ file_t $ seed_t $ processors_t $ k_t $ iterations_t
      $ validate_t $ auto_k_t $ comm_opt_t $ comm_window_t $ trace_t)

let doacross_cmd =
  let run workload file seed processors k iterations exhaustive =
    with_graph workload file seed (fun g ->
        let machine = machine_of processors k in
        let doa =
          if exhaustive then (Mimd_doacross.Reorder.exhaustive ~graph:g ~machine ()).analysis
          else Mimd_doacross.Reorder.best ~graph:g ~machine ()
        in
        Format.printf "%a@." Mimd_doacross.Doacross.pp doa;
        let seq = Mimd_doacross.Sequential.time g ~iterations in
        let par = Mimd_doacross.Doacross.effective_makespan doa ~iterations in
        Format.printf "sequential %d, parallel %d -> percentage parallelism %.1f@." seq par
          (Mimd_core.Metrics.percentage_parallelism ~sequential:seq ~parallel:par);
        0)
  in
  let ex_t = Arg.(value & flag & info [ "exhaustive" ] ~doc:"Force exhaustive reordering.") in
  Cmd.v
    (Cmd.info "doacross" ~doc:"Run the DOACROSS baseline [Cytron86]")
    Term.(const run $ workload_t $ file_t $ seed_t $ processors_t $ k_t $ iterations_t $ ex_t)

let codegen_cmd =
  let run workload file seed processors k =
    with_graph workload file seed (fun g ->
        let machine = machine_of processors k in
        let cls = Classify.run g in
        let core, _, _ =
          if Classify.is_doall cls then (g, [||], [||]) else Classify.cyclic_subgraph g cls
        in
        match Cyclic_sched.solve ~graph:core ~machine () with
        | r ->
          print_string (Mimd_codegen.Rolled.render r.Cyclic_sched.pattern);
          0
        | exception Cyclic_sched.No_pattern m ->
          prerr_endline ("mimdloop: " ^ m);
          1)
  in
  Cmd.v
    (Cmd.info "codegen" ~doc:"Emit the transformed per-processor loop (paper Figs. 7(e)/10)")
    Term.(const run $ workload_t $ file_t $ seed_t $ processors_t $ k_t)

let simulate_cmd =
  let run workload file seed processors k iterations mm =
    with_graph workload file seed (fun g ->
        let machine = machine_of processors k in
        let full = Full_sched.run ~graph:g ~machine ~iterations () in
        let links =
          if mm <= 1 then Mimd_sim.Links.fixed k
          else Mimd_sim.Links.uniform ~base:k ~mm ~seed:42
        in
        let out = Mimd_sim.Exec.simulate_schedule ~schedule:full.Full_sched.schedule ~links () in
        let seq = Mimd_doacross.Sequential.time g ~iterations in
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
  let mm_t =
    Arg.(value & opt int 1 & info [ "mm" ] ~docv:"MM" ~doc:"Run-time fluctuation factor.")
  in
  Cmd.v
    (Cmd.info "simulate" ~doc:"Execute the generated programs on the simulated multiprocessor")
    Term.(const run $ workload_t $ file_t $ seed_t $ processors_t $ k_t $ iterations_t $ mm_t)

let figures_cmd =
  let run only =
    let figs = Mimd_experiments.Figures.all () in
    let selected =
      match only with
      | None -> figs
      | Some id -> List.filter (fun (i, _) -> String.lowercase_ascii i = String.lowercase_ascii id) figs
    in
    if selected = [] then begin
      prerr_endline "mimdloop: unknown figure id";
      1
    end
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
  let k_t3 = Arg.(value & opt int 3 & info [ "k" ] ~docv:"K" ~doc:"Estimated comm cost.") in
  let p_t4 = Arg.(value & opt int 4 & info [ "p"; "processors" ] ~docv:"P" ~doc:"Processors.") in
  Cmd.v
    (Cmd.info "table1" ~doc:"Regenerate paper Table 1 (25 random loops, mm in {1,3,5})")
    Term.(const run $ iterations_t $ p_t4 $ k_t3)

let bounds_cmd =
  let run workload file seed processors iterations =
    with_graph workload file seed (fun g ->
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
    Term.(const run $ workload_t $ file_t $ seed_t $ processors_t $ iterations_t)

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
  let run workload file seed processors k iterations mm cycles =
    with_graph workload file seed (fun g ->
        let machine = machine_of processors k in
        let full = Full_sched.run ~graph:g ~machine ~iterations () in
        let links =
          if mm <= 1 then Mimd_sim.Links.fixed k
          else Mimd_sim.Links.uniform ~base:k ~mm ~seed:42
        in
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
  let mm_t = Arg.(value & opt int 1 & info [ "mm" ] ~docv:"MM" ~doc:"Fluctuation factor.") in
  let cyc_t = Arg.(value & opt int 40 & info [ "cycles" ] ~docv:"N" ~doc:"Cycles to draw.") in
  Cmd.v
    (Cmd.info "gantt" ~doc:"ASCII Gantt chart of the simulated execution")
    Term.(const run $ workload_t $ file_t $ seed_t $ processors_t $ k_t $ iterations_t $ mm_t $ cyc_t)

let export_cmd =
  let run workload file seed processors k iterations =
    with_graph workload file seed (fun g ->
        let machine = machine_of processors k in
        let full = Full_sched.run ~graph:g ~machine ~iterations () in
        print_string (Mimd_experiments.Export.schedule_csv full.Full_sched.schedule);
        0)
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Dump the full schedule as CSV (node,name,iter,PE,start,finish)")
    Term.(const run $ workload_t $ file_t $ seed_t $ processors_t $ k_t $ iterations_t)

let converge_cmd =
  let run workload file seed processors k =
    with_graph workload file seed (fun g ->
        let machine = machine_of processors k in
        let rows = Mimd_experiments.Convergence.measure ~graph:g ~machine () in
        print_string (Mimd_experiments.Convergence.render ~label:"loop" rows);
        0)
  in
  Cmd.v
    (Cmd.info "converge" ~doc:"Sp versus trip count (start-up transient)")
    Term.(const run $ workload_t $ file_t $ seed_t $ processors_t $ k_t)

let verify_cmd =
  let run file iterations processors k mm =
    match file with
    | None ->
      prerr_endline "mimdloop: verify needs --file";
      1
    | Some path -> begin
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error e ->
        prerr_endline ("mimdloop: " ^ e);
        1
      | src -> begin
        match Mimd_loop_ir.Parser.parse src with
        | exception Mimd_loop_ir.Parser.Error m ->
          prerr_endline ("mimdloop: parse error: " ^ m);
          1
        | parsed ->
          let loop =
            if Mimd_loop_ir.Ast.is_flat parsed then parsed
            else Mimd_loop_ir.If_convert.run parsed
          in
          let graph = (Mimd_loop_ir.Depend.analyze loop).Mimd_loop_ir.Depend.graph in
          if List.exists (fun (e : Graph.edge) -> e.distance > 1) (Graph.edges graph) then begin
            prerr_endline ("mimdloop: " ^ needs_unwinding);
            1
          end
          else begin
            let machine = machine_of processors k in
            let schedule = Cyclic_sched.schedule_iterations ~graph ~machine ~iterations () in
            let program = Mimd_codegen.From_schedule.run schedule in
            let links =
              if mm <= 1 then Mimd_sim.Links.fixed k
              else Mimd_sim.Links.uniform ~base:k ~mm ~seed:42
            in
            (* Timing from the simulator, values from the lowered
               evaluator run inline: values do not depend on timing. *)
            let timing = Mimd_sim.Exec.run ~program ~links () in
            let outcome = Mimd_runtime.Exec_compiled.run_inline ~loop ~program () in
            let spec = Mimd_loop_ir.Interp.instance_values loop ~iterations in
            match
              Result.bind
                (Mimd_runtime.Value_run.check_instances ~spec
                   outcome.Mimd_runtime.Value_run.instance_values)
                (fun () ->
                  Mimd_runtime.Value_run.check_against_sequential ~loop ~iterations outcome)
            with
            | Ok () ->
              Format.printf
                "OK: parallel execution matches the sequential interpreter bit-for-bit@.\
                 (%d iterations, %d PEs, makespan %d, %d messages)@."
                iterations processors timing.Mimd_sim.Exec.makespan
                timing.Mimd_sim.Exec.messages;
              0
            | Error e ->
              Format.printf "MISMATCH: %s@." e;
              1
          end
      end
    end
  in
  let mm_t = Arg.(value & opt int 1 & info [ "mm" ] ~docv:"MM" ~doc:"Fluctuation factor.") in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Compile a loop, time it on the simulator, run its values on the lowered \
             evaluator inline, and compare every instance against sequential execution")
    Term.(const run $ file_t $ iterations_t $ processors_t $ k_t $ mm_t)

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
  | Some path, None -> begin
    match In_channel.with_open_text path In_channel.input_all with
    | s -> begin
      match Mimd_loop_ir.Parser.parse s with
      | loop -> Ok loop
      | exception Mimd_loop_ir.Parser.Error m -> Error ("parse error: " ^ m)
      | exception Mimd_loop_ir.Lexer.Error { position; message } ->
        Error (Printf.sprintf "lex error at %d: %s" position message)
    end
    | exception Sys_error e -> Error e
  end
  | None, Some seed -> Ok (W.Random_loop.generate_loop ~seed ())
  | None, None -> begin
    match List.find_opt (fun (n, _, _) -> n = src) loop_sources with
    | Some (_, s, _) -> Ok (Mimd_loop_ir.Parser.parse s)
    | None ->
      Error
        (Printf.sprintf "unknown loop source %S; known: %s" src
           (String.concat ", " (List.map (fun (n, _, _) -> n) loop_sources)))
  end
  | Some _, Some _ -> Error "choose at most one of --file, --seed"

let src_t =
  let doc =
    "Named loop source: " ^ String.concat ", " (List.map (fun (n, _, _) -> n) loop_sources)
    ^ "."
  in
  Arg.(value & opt string "fig7" & info [ "src" ] ~docv:"NAME" ~doc)

(* Compile a loop down to a per-processor message-passing program —
   the front end of run-parallel and run-dist.  Codegen runs with
   validate:true, so the independent token simulation audits the
   message protocol over whichever channel backend runs it next. *)
let compile_for_run ?comm_opt ~loop ~machine ~iterations ~no_cache () =
  let flat =
    if Mimd_loop_ir.Ast.is_flat loop then loop else Mimd_loop_ir.If_convert.run loop
  in
  let graph = (Mimd_loop_ir.Depend.analyze flat).Mimd_loop_ir.Depend.graph in
  let full =
    if no_cache then Full_sched.run ~graph ~machine ~iterations ()
    else
      Mimd_runtime.Schedule_cache.find_or_compute Mimd_runtime.Schedule_cache.global ~graph
        ~machine ~iterations ()
  in
  let schedule = full.Full_sched.schedule in
  if
    Graph.node_count (Schedule.graph schedule)
    <> List.length (Mimd_loop_ir.Ast.assignments flat)
  then
    Error needs_unwinding
  else
    match Mimd_codegen.From_schedule.run ~validate:true schedule with
    | exception Mimd_codegen.From_schedule.Invalid_program m ->
      Error ("generated program rejected by the validator: " ^ m)
    | program -> (
      match comm_opt with
      | None -> Ok (flat, full, program, None)
      | Some window -> (
        match optimize_program ~window program with
        | Error e -> Error e
        | Ok (opt, stats) -> Ok (flat, full, opt, Some stats)))

let run_parallel_cmd =
  let run src file seed processors k iterations timed grain_us repeat no_cache timeout fault
      comm_opt comm_window trace =
    match load_loop ~src ~file ~seed with
    | Error e ->
      prerr_endline ("mimdloop: " ^ e);
      1
    | Ok loop ->
      guard_broken_pipe @@ fun () ->
      with_trace trace @@ fun () ->
      let machine = machine_of processors k in
      let comm_opt = if comm_opt then Some comm_window else None in
      match compile_for_run ?comm_opt ~loop ~machine ~iterations ~no_cache () with
      | Error e ->
        prerr_endline ("mimdloop: " ^ e);
        1
      | Ok (flat, full, program, comm_stats) ->
        Option.iter print_comm_stats comm_stats;
        let cache = Mimd_runtime.Schedule_cache.global in
        (* Repeated requests for the same loop exercise the cache: only
           the first compile above actually scheduled. *)
        let resched_ns =
          if repeat > 1 && not no_cache then begin
            let graph = (Mimd_loop_ir.Depend.analyze flat).Mimd_loop_ir.Depend.graph in
            let t0 = Unix.gettimeofday () in
            for _ = 2 to repeat do
              ignore
                (Mimd_runtime.Schedule_cache.find_or_compute cache ~graph ~machine
                   ~iterations ())
            done;
            (Unix.gettimeofday () -. t0) /. float_of_int (repeat - 1) *. 1e9
          end
          else 0.0
        in
        (* Deterministic fault injection, exercising the failure exits:
           drop-send removes one message after validation (the watchdog
           must fire), skew-init perturbs only the runtime's initial
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
                p.Mimd_codegen.Program.programs
            in
            if !dropped then Ok { p with Mimd_codegen.Program.programs }
            else Error "--inject-fault drop-send: the program sends no messages"
        in
        match inject program with
        | Error e ->
          prerr_endline ("mimdloop: " ^ e);
          1
        | Ok program ->
        let run_init =
          match fault with
          | `Skew_init -> Some (fun a i -> Mimd_loop_ir.Interp.init a i +. 1.0)
          | `None | `Drop_send | `Stale_slot -> None
        in
        let watchdog = Mimd_runtime.Watchdog.config ~timeout () in
        let run_backend () =
          let lowered = Mimd_runtime.Lower.run ~loop:flat ~program () in
          let lowered =
            if fault = `Stale_slot then Mimd_runtime.Lower.sabotage_stale_slot lowered
            else lowered
          in
          Mimd_runtime.Exec_compiled.run ?init:run_init ~watchdog ~lowered ~loop:flat
            ~program ()
        in
        match run_backend () with
        | exception Mimd_runtime.Watchdog.Runtime_deadlock stall ->
          prerr_endline ("mimdloop: runtime deadlock\n" ^ Mimd_runtime.Watchdog.describe stall);
          1
        | exception Invalid_argument m ->
          prerr_endline ("mimdloop: " ^ m);
          1
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
            let sim = Mimd_sim.Exec.run ~program ~links:(Mimd_sim.Links.fixed k) () in
            Format.printf "  simulated makespan: %d cycle(s) (static schedule: %d)@."
              sim.Mimd_sim.Exec.makespan
              (Full_sched.parallel_time full);
            if repeat > 1 && not no_cache then
              Format.printf "  schedule cache: %.0f ns per repeated request@." resched_ns;
            if not no_cache then begin
              let st = Mimd_runtime.Schedule_cache.stats cache in
              Format.printf "  schedule cache: %d hit(s), %d miss(es), %d entr%s@."
                st.Mimd_runtime.Schedule_cache.hits st.Mimd_runtime.Schedule_cache.misses
                st.Mimd_runtime.Schedule_cache.entries
                (if st.Mimd_runtime.Schedule_cache.entries = 1 then "y" else "ies");
            end;
            if not timed then 0
            else begin
              match
                compile_for_run ~loop ~machine:(machine_of 1 k) ~iterations ~no_cache ()
              with
              | Error e ->
                prerr_endline ("mimdloop: " ^ e);
                1
              | Ok (_, _, seq_program, _) -> (
                let work = Mimd_runtime.Timed_run.Sleep (grain_us *. 1e3) in
                match
                  let par = Mimd_runtime.Timed_run.run ~watchdog ~work ~program () in
                  let seq = Mimd_runtime.Timed_run.run ~watchdog ~work ~program:seq_program () in
                  Format.printf
                    "  timed dry run (%.1f us/cycle): %d domain(s) %.2f ms, 1 domain %.2f ms \
                     -> wall-clock speedup %.2f@."
                    grain_us par.Mimd_runtime.Timed_run.domains
                    (par.Mimd_runtime.Timed_run.makespan_ns /. 1e6)
                    (seq.Mimd_runtime.Timed_run.makespan_ns /. 1e6)
                    (Mimd_runtime.Timed_run.speedup ~baseline:seq par)
                with
                | () -> 0
                | exception Mimd_runtime.Watchdog.Runtime_deadlock stall ->
                  prerr_endline
                    ("mimdloop: runtime deadlock in the timed dry run\n"
                    ^ Mimd_runtime.Watchdog.describe stall);
                  1)
            end
        end
  in
  let timed_t =
    Arg.(value & flag & info [ "timed" ]
           ~doc:"Also run the cycle-emulating dry run and report wall-clock speedup over a \
                 1-domain run.")
  in
  let grain_t =
    Arg.(value & opt float 20.0 & info [ "grain-us" ] ~docv:"US"
           ~doc:"Emulated duration of one schedule cycle in the dry run (microseconds).")
  in
  let repeat_t =
    Arg.(value & opt int 1 & info [ "repeat" ] ~docv:"R"
           ~doc:"Schedule the same request R times (exercises the schedule cache).")
  in
  let no_cache_t =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Bypass the schedule cache.")
  in
  let timeout_t =
    Arg.(value & opt float 5.0 & info [ "watchdog-timeout" ] ~docv:"SECONDS"
           ~doc:"Declare a runtime deadlock after this long without progress.")
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
                 $(b,drop-send) removes one message (watchdog fires), $(b,skew-init) \
                 perturbs the runtime's initial memory (value mismatch), $(b,stale-slot) \
                 rewires one compiled operand to an unwritten slot (value mismatch).")
  in
  Cmd.v
    (Cmd.info "run-parallel"
       ~doc:"Execute a compiled loop on real OCaml 5 domains (one per scheduled processor) \
             and check the values against the sequential interpreter")
    Term.(
      const run $ src_t $ file_t $ seed_t $ processors_t $ k_t $ iterations_t $ timed_t
      $ grain_t $ repeat_t $ no_cache_t $ timeout_t $ fault_t $ comm_opt_t $ comm_window_t
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
  let run workload file seed all processors k iterations broken fuzz fuzz_seed fault fuzz_out
      no_runtime replay =
    let machine = machine_of processors k in
    match replay with
    | Some path -> begin
      match F.load_case path with
      | exception Sys_error e ->
        prerr_endline ("mimdloop: " ^ e);
        1
      | exception Mimd_loop_ir.Parser.Error m ->
        prerr_endline ("mimdloop: parse error: " ^ m);
        1
      | exception Mimd_loop_ir.Lexer.Error { position; message } ->
        prerr_endline (Printf.sprintf "mimdloop: lex error at %d: %s" position message);
        1
      | exception Failure m ->
        prerr_endline ("mimdloop: " ^ m);
        1
      | case -> begin
        match F.check_case ~fault ~runtime:(not no_runtime) case with
        | Ok () ->
          Printf.printf "replay %s: all checks passed\n" path;
          0
        | Error e ->
          Printf.printf "replay %s: FAILED - %s\n" path e;
          1
      end
    end
    | None -> begin
      match fuzz with
      | Some count -> begin
        let cfg =
          {
            F.count;
            seed = fuzz_seed;
            fault;
            runtime = not no_runtime;
            out_dir = fuzz_out;
          }
        in
        let outcome = F.run cfg in
        print_endline (F.describe outcome);
        match outcome with F.Passed _ -> 0 | F.Failed _ -> 1
      end
      | None ->
        if all || (workload = None && file = None && seed = None) then begin
          let oks =
            List.map
              (fun (name, g, _) -> check_graph ~name ~machine ~iterations ~broken (g ()))
              workloads
          in
          if List.for_all Fun.id oks then 0 else 1
        end
        else
          with_graph workload file seed (fun g ->
              let name = Option.value ~default:"input" workload in
              if check_graph ~name ~machine ~iterations ~broken g then 0 else 1)
    end
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
    Arg.(value & opt (some int) None & info [ "fuzz" ] ~docv:"N"
           ~doc:"Instead of checking workloads, drive N random loops and machine shapes \
                 through the whole pipeline, comm-opt rewrite included, with every stage \
                 audited and every instance value compared against the sequential \
                 interpreter: inline, on the forked-socket runtime and on domains. \
                 Each case draws its own fan-out and machine shape (p, k, trip count).")
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
      const run $ workload_t $ file_t $ seed_t $ all_t $ processors_t $ k_t $ iterations_t
      $ broken_t $ fuzz_t $ fuzz_seed_t $ inject_fault_t $ fuzz_out_t $ no_runtime_t
      $ replay_t)

(* ------------------------------------------------------------------ *)
(* The compile service: serve (stdio / Unix socket) and batch           *)

let jobs_t =
  let doc =
    "Worker domains in the compile pool (default: the runtime's recommended domain \
     count, capped at 8)."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)

let cache_dir_t =
  let doc =
    "Directory of the persistent schedule cache (default: \\$XDG_CACHE_HOME/mimdloop or \
     ~/.cache/mimdloop)."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let no_disk_cache_t =
  Arg.(value & flag & info [ "no-disk-cache" ] ~doc:"Disable the on-disk schedule cache.")

let validate_sched_t =
  Arg.(value & flag & info [ "validate" ]
         ~doc:"Audit every freshly computed schedule with the independent checker \
               (mimd_check) before it is cached; rejected schedules produce a structured \
               error instead of an entry.")

let queue_depth_t =
  Arg.(value & opt int 64 & info [ "queue-depth" ] ~docv:"N"
         ~doc:"Bound on the work queue; a full queue blocks readers and accepts \
               (backpressure).")

let resolve_jobs = function
  | Some j when j >= 1 -> j
  | Some _ -> 1
  | None -> max 1 (min 8 (Domain.recommended_domain_count ()))

let make_server ?comm_opt ~jobs ~queue_depth ~cache_dir ~no_disk_cache ~validate () =
  let disk =
    if no_disk_cache then None
    else
      Some
        (Mimd_server.Disk_cache.create
           ~dir:(Option.value ~default:(Mimd_server.Disk_cache.default_dir ()) cache_dir))
  in
  let service = Mimd_server.Service.create ?disk ~validate ?comm_opt () in
  let pool = Mimd_server.Pool.create ~queue_depth ~jobs:(resolve_jobs jobs) () in
  let server = Mimd_server.Server.create ~service ~pool () in
  (server, pool)

let serve_cmd =
  let run stdio socket jobs queue_depth cache_dir no_disk_cache validate comm_opt
      comm_window trace =
    with_streaming_trace trace @@ fun () ->
    let comm_opt = if comm_opt then Some comm_window else None in
    let server, pool =
      make_server ?comm_opt ~jobs ~queue_depth ~cache_dir ~no_disk_cache ~validate ()
    in
    let code =
      match (stdio, socket) with
      | true, None -> Mimd_server.Server.serve_stdio server
      | false, Some path -> Mimd_server.Server.serve_socket server ~path
      | true, Some _ ->
        prerr_endline "mimdloop: choose one of --stdio, --socket";
        1
      | false, None ->
        prerr_endline "mimdloop: serve needs --stdio or --socket PATH";
        1
    in
    Mimd_server.Pool.shutdown pool;
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
    Term.(
      const run $ stdio_t $ socket_t $ jobs_t $ queue_depth_t $ cache_dir_t
      $ no_disk_cache_t $ validate_sched_t $ comm_opt_t $ comm_window_t $ trace_t)

let batch_cmd =
  let run paths jobs queue_depth cache_dir no_disk_cache validate processors k iterations
      deadline_ms =
    let server, pool =
      make_server ~jobs ~queue_depth ~cache_dir ~no_disk_cache ~validate ()
    in
    let machine = machine_of processors k in
    let code =
      Mimd_server.Server.batch server ~machine ~iterations ?deadline_ms ~paths ()
    in
    Mimd_server.Pool.shutdown pool;
    code
  in
  let paths_t =
    Arg.(non_empty & pos_all string [] & info [] ~docv:"PATH"
           ~doc:"Loop-IR files, or directories searched recursively for *.loop files.")
  in
  let deadline_t =
    Arg.(value & opt (some float) None & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Per-file compile deadline; a blown deadline is a structured error (and \
                 a non-zero exit).")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Compile and report a whole corpus of loops in parallel on the compile \
             service's worker pool (same caches as serve, no socket); exits non-zero if \
             any file fails")
    Term.(
      const run $ paths_t $ jobs_t $ queue_depth_t $ cache_dir_t $ no_disk_cache_t
      $ validate_sched_t $ processors_t $ k_t $ iterations_t $ deadline_t)

(* ------------------------------------------------------------------ *)
(* The socket backend: run-dist and the sharded serve fleet (route)    *)

let dist_timeout_t =
  Arg.(value & opt float 5.0 & info [ "timeout" ] ~docv:"SECONDS"
         ~doc:"Declare the distributed run stalled after this long without any child \
               report (the socket analogue of the runtime watchdog).")

let run_dist_cmd =
  let module Runner = Mimd_dist.Runner in
  let module VR = Mimd_runtime.Value_run in
  (* One dist execution: compile, fork, compare against the sequential
     interpreter.  Returns an error string instead of printing so the
     sweep can aggregate. *)
  let dist_once ?sabotage ?comm_opt ?transport ?(respawn = 0) ~loop ~machine ~iterations
      ~timeout () =
    match compile_for_run ?comm_opt ~loop ~machine ~iterations ~no_cache:false () with
    | Error e -> Error e
    | Ok (flat, _full, program, stats) -> (
      match Runner.run ?sabotage ?transport ~respawn ~timeout ~loop:flat ~program () with
      | exception Runner.Dist_error f -> Error ("dist failure: " ^ Runner.describe f)
      | outcome -> (
        match VR.check_against_sequential ~loop:flat ~iterations outcome with
        | Error e -> Error ("MISMATCH vs sequential interpreter: " ^ e)
        | Ok () -> Ok (flat, program, stats, outcome)))
  in
  let run src file seed processors k iterations timeout probe vs_domains sweep fault
      tcp connect respawn auto_k comm_opt comm_window trace =
    let comm_opt = if comm_opt then Some comm_window else None in
    guard_broken_pipe @@ fun () ->
    with_trace trace @@ fun () ->
    let machine = machine_of processors k in
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
    | Error e ->
      prerr_endline ("mimdloop: --connect: " ^ e);
      1
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
    (* Forks before domains, always: probe and dist runs come first;
       the in-domain comparison (--vs-domains) runs last. *)
    if probe then
      print_string
        (Mimd_dist.Linkprobe.render ~assumed_k:k
           (Mimd_dist.Linkprobe.probe ~procs:(max 2 processors) ()));
    if sweep > 0 then begin
      (* Differential sweep: seeded random loops, socket backend vs
         the sequential interpreter, all in one process. *)
      let failures = ref [] in
      for seed = 1 to sweep do
        let loop = W.Random_loop.generate_loop ~seed () in
        match
          dist_once ?comm_opt ?transport ~respawn ~loop ~machine ~iterations ~timeout ()
        with
        | Ok _ -> ()
        | Error e -> failures := (seed, e) :: !failures
      done;
      match !failures with
      | [] ->
        Format.printf "sweep OK: %d seeded loop(s) bit-identical over the %s backend@."
          sweep
          (if want_tcp then "loopback-TCP" else "socket");
        0
      | fs ->
        List.iter
          (fun (seed, e) -> Format.printf "seed %d: %s@." seed e)
          (List.rev fs);
        Format.printf "sweep FAILED: %d of %d seed(s)@." (List.length fs) sweep;
        1
    end
    else
      match load_loop ~src ~file ~seed with
      | Error e ->
        prerr_endline ("mimdloop: " ^ e);
        1
      | Ok loop -> (
        (* Probing forks, so it runs strictly before the run's own
           forks. *)
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
        match
          dist_once ?sabotage ?comm_opt ?transport ~respawn ~loop ~machine ~iterations
            ~timeout ()
        with
        | Error e ->
          prerr_endline ("mimdloop: " ^ e);
          1
        | Ok (flat, program, stats, outcome) ->
          Option.iter print_comm_stats stats;
          Format.printf
            "OK: %d forked process(es)%s computed all %d iteration(s) bit-identically \
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
            (* The in-domain runtime runs strictly after every fork. *)
            match Mimd_runtime.Exec_compiled.run ~loop:flat ~program () with
            | exception Mimd_runtime.Watchdog.Runtime_deadlock stall ->
              prerr_endline
                ("mimdloop: runtime deadlock in the domain comparison\n"
                ^ Mimd_runtime.Watchdog.describe stall);
              1
            | domains_outcome ->
              if
                domains_outcome.VR.instance_values = outcome.VR.instance_values
                && domains_outcome.VR.final = outcome.VR.final
              then begin
                Format.printf
                  "  vs domains: bit-identical (%d instance value(s), %d final cell(s))@."
                  (List.length outcome.VR.instance_values)
                  (List.length outcome.VR.final);
                0
              end
              else begin
                Format.printf "MISMATCH between socket and domain backends@.";
                1
              end
          end)
  in
  let probe_t =
    Arg.(value & flag & info [ "probe" ]
           ~doc:"First measure real per-link round-trip cost over the socket mesh and \
                 report the effective k next to the scheduler's assumed k.")
  in
  let vs_domains_t =
    Arg.(value & flag & info [ "vs-domains" ]
           ~doc:"Also execute on the in-process domain runtime and require bit-identical \
                 instance values (runs after the forked execution; OCaml forbids forking \
                 once domains exist).")
  in
  let sweep_t =
    Arg.(value & opt int 0 & info [ "sweep" ] ~docv:"N"
           ~doc:"Differential sweep: run seeds 1..$(docv) of the Section-4 random loop \
                 generator through the socket backend and compare each against the \
                 sequential interpreter (ignores --src/--file/--seed).")
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
                 listeners on ephemeral ports, dialed after the fork with a \
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
    Arg.(value & opt int 0 & info [ "respawn" ] ~docv:"N"
           ~doc:"Retry the whole run up to $(docv) times after a child crash or stall \
                 (a run is a deterministic pure function, so the retry is sound; every \
                 failure path reaps all children first).  Child-side errors are never \
                 retried — they recur deterministically.")
  in
  Cmd.v
    (Cmd.info "run-dist"
       ~doc:"Execute a compiled loop on forked OS processes connected by Unix-domain \
             sockets or TCP (one process per scheduled processor) and check the values \
             against the sequential interpreter")
    Term.(
      const run $ src_t $ file_t $ seed_t $ processors_t $ k_t $ iterations_t
      $ dist_timeout_t $ probe_t $ vs_domains_t $ sweep_t $ fault_t $ tcp_t $ connect_t
      $ respawn_t $ auto_k_t $ comm_opt_t $ comm_window_t $ trace_t)

let route_cmd =
  let run workers socket worker_dir max_inflight jobs queue_depth cache_dir no_disk_cache
      validate trace respawn =
    if workers < 1 then begin
      prerr_endline "mimdloop: route needs --workers >= 1";
      1
    end
    else begin
      (* Streaming trace: the router sets its own sink (and each
         worker its own file) only after the fleet has forked, so
         children never inherit the parent's sink fd. *)
      if Option.is_some trace then Mimd_obs.Trace.enable ();
      let cfg =
        {
          Mimd_dist.Router.workers;
          socket;
          worker_dir = Option.value ~default:(Filename.dirname socket) worker_dir;
          max_inflight;
          jobs;
          queue_depth;
          cache_dir =
            (if no_disk_cache then None
             else
               Some (Option.value ~default:(Mimd_server.Disk_cache.default_dir ()) cache_dir));
          validate;
          trace;
          respawn = max 0 respawn;
        }
      in
      let code = Mimd_dist.Router.serve cfg in
      if Option.is_some trace then Mimd_obs.Trace.disable ();
      code
    end
  in
  let workers_t =
    Arg.(value & opt int 2 & info [ "workers" ] ~docv:"N"
           ~doc:"Size of the serve fleet: $(docv) forked worker processes, each a full \
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
    Arg.(value & opt int 64 & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Admission control: bound on compile requests in flight across the \
                 fleet; the excess is shed with a structured $(b,overload) error.")
  in
  let respawn_t =
    Arg.(value & opt int 0 & info [ "respawn" ] ~docv:"N"
           ~doc:"Supervise the fleet: re-fork a dead worker up to $(docv) times (per \
                 worker), through a warden process forked before the router grows \
                 threads.  A fleet-wide circuit breaker refuses respawn storms.  \
                 0 disables supervision.")
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Sharded serve fleet: a consistent-hash router in front of N forked serve \
             workers sharing one disk cache, with per-worker health, failover, respawn \
             supervision and bounded-in-flight admission control")
    Term.(
      const run $ workers_t $ socket_t $ worker_dir_t $ max_inflight_t $ jobs_t
      $ queue_depth_t $ cache_dir_t $ no_disk_cache_t $ validate_sched_t $ trace_t
      $ respawn_t)

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
  let run workload file seed k max_procs =
    with_graph workload file seed (fun g ->
        let cls = Classify.run g in
        let core, _, _ =
          if Classify.is_doall cls then (g, [||], [||]) else Classify.cyclic_subgraph g cls
        in
        match
          Mimd_core.Auto_procs.search ~max_processors:max_procs ~graph:core
            ~comm_estimate:k ()
        with
        | t ->
          print_string (Mimd_core.Auto_procs.render t);
          0
        | exception Cyclic_sched.No_pattern m ->
          prerr_endline ("mimdloop: " ^ m);
          1)
  in
  let max_t =
    Arg.(value & opt int 8 & info [ "max" ] ~docv:"P" ~doc:"Largest processor count to try.")
  in
  Cmd.v
    (Cmd.info "procs" ~doc:"Find the cheapest processor count for the Cyclic core")
    Term.(const run $ workload_t $ file_t $ seed_t $ k_t $ max_t)

let fingerprint_cmd =
  let run workload file seed files processors k iterations comm_opt comm_window =
    let machine = machine_of processors k in
    (* With --comm-opt the digest pins the optimized programs, and the
       line carries the message-count delta the rewrite bought, so the
       golden corpus doubles as a reduction table. *)
    let fp g =
      let full = Full_sched.run ~graph:g ~machine ~iterations () in
      if not comm_opt then Full_sched.output_fingerprint full
      else begin
        let program = Mimd_codegen.From_schedule.run full.Full_sched.schedule in
        let opt, stats = Mimd_codegen.Comm_opt.run ~window:comm_window program in
        Printf.sprintf "%s  %d->%d"
          (Mimd_codegen.Comm_opt.fingerprint opt)
          stats.Mimd_codegen.Comm_opt.messages_before
          stats.Mimd_codegen.Comm_opt.messages_after
      end
    in
    if files <> [] then begin
      let failed = ref false in
      List.iter
        (fun path ->
          match load_graph ~workload:None ~file:(Some path) ~seed:None with
          | Error e ->
            prerr_endline ("mimdloop: " ^ path ^ ": " ^ e);
            failed := true
          | Ok g -> begin
            match fp g with
            | h -> Printf.printf "%s  %s\n" h (Filename.basename path)
            | exception Cyclic_sched.No_pattern m ->
              prerr_endline ("mimdloop: " ^ path ^ ": " ^ m);
              failed := true
          end)
        (List.sort compare files);
      if !failed then 1 else 0
    end
    else
      with_graph workload file seed (fun g ->
          let label =
            match (workload, file, seed) with
            | Some w, _, _ -> w
            | _, Some f, _ -> Filename.basename f
            | _, _, Some s -> Printf.sprintf "seed-%d" s
            | _ -> "input"
          in
          match fp g with
          | h ->
            Printf.printf "%s  %s\n" h label;
            0
          | exception Cyclic_sched.No_pattern m ->
            prerr_endline ("mimdloop: " ^ m);
            1)
  in
  let files_t =
    Arg.(value & pos_all string [] & info [] ~docv:"FILES"
           ~doc:"Loop source files to fingerprint (sorted; one line each).")
  in
  Cmd.v
    (Cmd.info "fingerprint"
       ~doc:"Print a canonical 64-bit digest of the compiled schedule, for golden diffs")
    Term.(
      const run $ workload_t $ file_t $ seed_t $ files_t $ processors_t $ k_t $ iterations_t
      $ comm_opt_t $ comm_window_t)

let trace_cmd =
  let run pos_file workload file seed output processors k iterations mm =
    let file =
      match (pos_file, file) with Some p, None -> Some p | _, f -> f
    in
    with_graph workload file seed (fun g ->
        let machine = machine_of processors k in
        Mimd_obs.Trace.clear ();
        Mimd_obs.Trace.enable ();
        let code =
          match Full_sched.run ~validate:true ~graph:g ~machine ~iterations () with
          | exception Full_sched.Invalid_schedule m ->
            prerr_endline ("mimdloop: schedule rejected by the independent validator: " ^ m);
            1
          | exception Cyclic_sched.No_pattern m ->
            prerr_endline ("mimdloop: " ^ m);
            1
          | full ->
            let links =
              if mm <= 1 then Mimd_sim.Links.fixed k
              else Mimd_sim.Links.uniform ~base:k ~mm ~seed:42
            in
            let out =
              Mimd_sim.Exec.simulate_schedule ~schedule:full.Full_sched.schedule ~links ()
            in
            Format.printf "compiled: makespan %d on %d processor(s); simulated %d@."
              (Full_sched.parallel_time full)
              (Full_sched.total_processors full)
              out.Mimd_sim.Exec.makespan;
            0
        in
        Mimd_obs.Trace.disable ();
        let json = Mimd_obs.Trace.export () in
        match
          Out_channel.with_open_text output (fun oc -> Out_channel.output_string oc json)
        with
        | () ->
          Format.printf "trace written to %s@." output;
          code
        | exception Sys_error e ->
          prerr_endline ("mimdloop: " ^ e);
          1)
  in
  let pos_file_t =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE"
           ~doc:"Loop source file (equivalent to --file).")
  in
  let out_t =
    Arg.(value & opt string "trace.json" & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Where to write the Chrome trace_event JSON.")
  in
  let mm_t =
    Arg.(value & opt int 1 & info [ "mm" ] ~docv:"MM" ~doc:"Run-time fluctuation factor.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:"Compile a loop (and simulate the result) with tracing on, writing every \
             pipeline stage as a Chrome trace_event JSON file for Perfetto")
    Term.(
      const run $ pos_file_t $ workload_t $ file_t $ seed_t $ out_t $ processors_t $ k_t
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

(* Every ~validate:true pipeline run — here and in the tests — is
   audited by the independent checker, not by the layers' own checks. *)
let () = Mimd_check.Validate.install_hooks ()

(* The fuzz oracle's socket leg: mimd_check sits below mimd_dist
   in the dependency graph, so the forked-socket executor is injected
   here, where both are visible. *)
let () =
  Mimd_check.Fuzz.socket_backend :=
    Some
      (fun ~loop ~program ->
        match Mimd_dist.Runner.run ~timeout:30.0 ~loop ~program () with
        | exception Mimd_dist.Runner.Dist_error f ->
          Error ("dist failure: " ^ Mimd_dist.Runner.describe f)
        | outcome -> Ok outcome.Mimd_runtime.Value_run.instance_values)

(* A reader that stops consuming (mimdloop ... | head) breaks stdout;
   with SIGPIPE ignored that surfaces as Sys_error EPIPE from the
   at_exit flush of the std formatter, turning a clean exit into
   "Fatal error".  If stdout is already broken, point fd 1 at
   /dev/null so the remaining buffered output drains harmlessly and
   the exit code survives. *)
let () =
  let code = Cmd.eval' main_cmd in
  (try
     Format.pp_print_flush Format.std_formatter ();
     flush stdout
   with Sys_error _ -> (
     try
       let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
       Unix.dup2 null Unix.stdout;
       Unix.close null
     with Unix.Unix_error _ -> ()));
  exit code
