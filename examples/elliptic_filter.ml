(* The fifth-order elliptic wave filter (paper Figure 12): scheduling a
   real DSP kernel whose feedback structure defeats iteration-level
   pipelining entirely, across a range of processor counts and
   communication costs.

     dune exec examples/elliptic_filter.exe *)

module Graph = Mimd_ddg.Graph
module Config = Mimd_machine.Config
module Full_sched = Mimd_core.Full_sched
module Tablefmt = Mimd_util.Tablefmt

let iterations = 200

let () =
  let graph = Mimd_workloads.Elliptic.graph () in
  let cls = Mimd_core.Classify.run graph in
  Format.printf "elliptic wave filter: %d nodes (%d add, %d mul), %d Cyclic, %d Flow-out@."
    (Graph.node_count graph) Mimd_workloads.Elliptic.adds Mimd_workloads.Elliptic.muls
    (List.length cls.Mimd_core.Classify.cyclic)
    (List.length cls.Mimd_core.Classify.flow_out);
  Format.printf "recurrence bound: %.2f cycles/iteration (no machine can beat this)@.@."
    (Mimd_ddg.Reach.recurrence_bound graph);

  let seq = Mimd_core.Metrics.sequential_time graph ~iterations in
  Format.printf "sequential: %d cycles for %d iterations@.@." seq iterations;

  (* Sweep processors and k. *)
  let t =
    Tablefmt.create
      ~header:[ "PEs"; "k"; "pattern rate"; "ours Sp"; "DOACROSS Sp"; "Dopipe Sp" ]
      ()
  in
  List.iter
    (fun (p, k) ->
      let machine = Config.make ~processors:p ~comm_estimate:k in
      let full = Full_sched.run ~graph ~machine ~iterations () in
      let ours = Full_sched.parallel_time full in
      let doa = Mimd_doacross.Reorder.best ~graph ~machine () in
      let doa_time = Mimd_doacross.Doacross.effective_makespan doa ~iterations in
      let dopipe = Mimd_doacross.Dopipe.analyze ~graph ~machine () in
      let dopipe_time = Mimd_doacross.Dopipe.makespan dopipe ~iterations in
      let sp par = Printf.sprintf "%.1f" (float_of_int (seq - par) /. float_of_int seq *. 100.0) in
      let rate =
        match full.Full_sched.pattern with
        | Some pat -> Printf.sprintf "%.2f" (Mimd_core.Pattern.rate pat)
        | None -> "-"
      in
      Tablefmt.add_row t
        [ string_of_int p; string_of_int k; rate; sp ours; sp doa_time; sp (min dopipe_time seq) ])
    [ (1, 2); (2, 0); (2, 1); (2, 2); (2, 4); (3, 2); (4, 2) ];
  Tablefmt.print t;
  Format.printf
    "@.paper (2 PEs, k=2): ours 30.9, DOACROSS 0 — the feedback loops leave DOACROSS nothing@.";

  (* Show the steady-state pattern at the paper's configuration. *)
  let machine = Mimd_workloads.Elliptic.machine in
  let full = Full_sched.run ~graph ~machine ~iterations () in
  match full.Full_sched.pattern with
  | Some p -> Format.printf "@.%a@." Mimd_core.Pattern.pp p
  | None -> ()
