(* Quickstart: the full journey from loop source text to a running
   parallel program, on the paper's Figure 7 example.

     dune exec examples/quickstart.exe

   Steps: parse the loop, analyse dependences, classify nodes, find the
   steady-state pattern, emit the transformed per-processor loop, and
   execute it on the simulated MIMD machine. *)

module Graph = Mimd_ddg.Graph
module Classify = Mimd_core.Classify
module Cyclic_sched = Mimd_core.Cyclic_sched
module Pattern = Mimd_core.Pattern
module Schedule = Mimd_core.Schedule

let source =
  "for i = 1 to n {\n\
  \  A[i] = A[i-1] * E[i-1];\n\
  \  B[i] = A[i];\n\
  \  C[i] = B[i];\n\
  \  D[i] = D[i-1] * C[i-1];\n\
  \  E[i] = D[i];\n\
   }\n"

let () =
  print_endline "== 1. the loop ==";
  print_string source;

  (* Front end: parse + dependence analysis. *)
  let analysis =
    Mimd_loop_ir.Depend.analyze_string ~cost:Mimd_loop_ir.Cost.uniform source
  in
  let graph = analysis.Mimd_loop_ir.Depend.graph in
  Format.printf "@.== 2. dependence graph ==@.%a@." Graph.pp graph;
  List.iter
    (fun d -> Format.printf "  %a@." (Mimd_loop_ir.Depend.pp_dep analysis) d)
    analysis.Mimd_loop_ir.Depend.deps;

  (* Classification (paper Figure 2). *)
  let cls = Classify.run graph in
  Format.printf "@.== 3. classification ==@.%a@." (Classify.pp ~names:(Graph.name graph)) cls;

  (* The scheduler proper: two processors, communication estimate 2. *)
  let machine = Mimd_machine.Config.make ~processors:2 ~comm_estimate:2 in
  let result = Cyclic_sched.solve ~graph ~machine () in
  let pattern = result.Cyclic_sched.pattern in
  Format.printf "@.== 4. steady-state pattern (k=%d) ==@.%a@."
    machine.Mimd_machine.Config.comm_estimate Pattern.pp pattern;

  (* Transformed loop, as a compiler would emit it. *)
  print_endline "== 5. transformed loop ==";
  print_string (Mimd_codegen.Rolled.render pattern);

  (* Execute 1000 iterations on the simulated machine. *)
  let iterations = 1000 in
  let schedule = Pattern.expand pattern ~iterations in
  (match Schedule.validate schedule with
  | Ok () -> ()
  | Error e -> failwith ("schedule does not validate: " ^ e));
  let run links_label links =
    let out = Mimd_sim.Exec.simulate_schedule ~schedule ~links () in
    let seq = Mimd_core.Metrics.sequential_time graph ~iterations in
    Format.printf "%-22s makespan %5d cycles  (sequential %d, Sp %.1f%%)@." links_label
      out.Mimd_sim.Exec.makespan seq
      (Mimd_core.Metrics.percentage_parallelism ~sequential:seq
         ~parallel:out.Mimd_sim.Exec.makespan)
  in
  Format.printf "@.== 6. simulated execution (%d iterations) ==@." iterations;
  run "comm = 2 (as assumed)" (Mimd_sim.Links.fixed 2);
  run "comm in [2,4] (mm=3)" (Mimd_sim.Links.uniform ~base:2 ~mm:3 ~seed:7);
  run "comm in [2,6] (mm=5)" (Mimd_sim.Links.uniform ~base:2 ~mm:5 ~seed:7);

  (* What the machine actually did, as a Gantt chart. *)
  let out =
    Mimd_sim.Exec.simulate_schedule ~record:true
      ~schedule:(Pattern.expand pattern ~iterations:10)
      ~links:(Mimd_sim.Links.fixed 2) ()
  in
  Format.printf "@.== 7. execution trace (first 10 iterations) ==@.";
  print_string (Mimd_sim.Gantt.render ~max_cycles:30 ~graph ~processors:2 out.Mimd_sim.Exec.trace);

  (* And the baseline for contrast. *)
  let doa = Mimd_doacross.Reorder.best ~graph ~machine () in
  let seq = Mimd_core.Metrics.sequential_time graph ~iterations in
  let doa_time = Mimd_doacross.Doacross.effective_makespan doa ~iterations in
  Format.printf "@.DOACROSS on the same loop: %d cycles (Sp %.1f%%) — %s@." doa_time
    (Mimd_core.Metrics.percentage_parallelism ~sequential:seq ~parallel:doa_time)
    (if Mimd_doacross.Doacross.no_overlap doa then "no pipelining possible" else "pipelined")
