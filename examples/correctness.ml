(* End-to-end correctness: the transformed parallel loop computes
   bit-identical results to the sequential original, whatever the
   scheduler, processor count, or network weather.

     dune exec examples/correctness.exe

   The pipeline under test: parse -> if-convert -> dependence analysis
   -> schedule (ours or DOACROSS) -> message-passing codegen ->
   the lowered evaluator run inline -> compare every written cell
   against the reference interpreter; the simulator gives the
   makespan under each traffic model (values do not depend on it). *)

module Depend = Mimd_loop_ir.Depend
module Interp = Mimd_loop_ir.Interp
module Links = Mimd_sim.Links
module Value_run = Mimd_runtime.Value_run

let loops =
  [
    ("figure-7", Mimd_workloads.Fig7.source);
    ( "newton-sqrt",
      "for i = 1 to n {\n\
      \  X[i] = (X[i-1] + A[i-1] / X[i-1]) / 2;\n\
      \  E[i] = X[i] * X[i] - A[i-1];\n\
       }" );
    ( "running-stats",
      "for i = 1 to n {\n\
      \  S[0] = S[0] + V[i-1];\n\
      \  Q[0] = Q[0] + V[i-1] * V[i-1];\n\
      \  M[i] = S[0];\n\
       }" );
    ( "guarded-clip",
      "for i = 1 to n {\n\
      \  A[i] = A[i-1] + D[i-1];\n\
      \  if (A[i] - 10) { A[i] = 10; } else { B[i] = A[i]; }\n\
       }" );
  ]

let iterations = 40

let check name loop schedule_kind schedule =
  let program = Mimd_codegen.From_schedule.run schedule in
  let outcome = Mimd_runtime.Exec_compiled.run_inline ~loop ~program () in
  let verdict = Value_run.check_against_sequential ~loop ~iterations outcome in
  List.iter
    (fun (traffic, links) ->
      match verdict with
      | Ok () ->
        Format.printf "  %-9s %-14s %-28s OK (makespan %d)@." schedule_kind traffic
          (Printf.sprintf "(%d values produced)" (List.length outcome.Value_run.instance_values))
          (Mimd_sim.Exec.run ~program ~links ()).Mimd_sim.Exec.makespan
      | Error e -> Format.printf "  %-9s %-14s MISMATCH: %s (%s)@." schedule_kind traffic e name)
    [
      ("k exact", Links.fixed 2);
      ("mm=5", Links.uniform ~base:2 ~mm:5 ~seed:11);
      ("bursty", Links.bursty ~base:2 ~mm:7 ~burst_len:8 ~seed:3);
    ]

let () =
  Format.printf
    "Every cell the loop writes, compared bit-for-bit against the sequential interpreter@.@.";
  List.iter
    (fun (name, src) ->
      Format.printf "--- %s ---@." name;
      let { Depend.loop; graph; _ } = Depend.analyze_string src in
      let machine = Mimd_machine.Config.make ~processors:2 ~comm_estimate:2 in
      let ours =
        Mimd_core.Cyclic_sched.schedule_iterations ~graph ~machine ~iterations ()
      in
      check name loop "ours" ours;
      let doa = Mimd_doacross.Reorder.best ~graph ~machine () in
      check name loop "doacross" (Mimd_doacross.Doacross.effective_schedule doa ~iterations);
      print_newline ())
    loops;
  Format.printf
    "if any line above said MISMATCH, codegen lost or reordered a value — the test@.\
     suite runs the same check over 120 randomly generated loops per run.@."
