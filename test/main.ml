let () =
  Alcotest.run "mimdloop"
    [
      (* dist MUST stay first: OCaml 5 forbids Unix.fork in a process
         that has ever created a domain, and the dist suite forks its
         own test peers and the route fleet's workers.  (Team members
         are spawned and may follow domains.) *)
      ("dist", Test_dist.suite);
      ("router-core", Test_router_core.suite);
      ("util", Test_util.suite);
      ("ddg", Test_ddg.suite);
      ("machine", Test_machine.suite);
      ("classify", Test_classify.suite);
      ("schedule", Test_schedule.suite);
      ("cyclic-sched", Test_cyclic_sched.suite);
      ("full-sched", Test_full.suite);
      ("doacross", Test_doacross.suite);
      ("codegen", Test_codegen.suite);
      ("comm-opt", Test_comm_opt.suite);
      ("sim", Test_sim.suite);
      ("loop-ir", Test_loop_ir.suite);
      ("lower", Test_lower.suite);
      ("extensions", Test_extensions.suite);
      ("workloads", Test_workloads.suite);
      ("values", Test_values.suite);
      ("opt", Test_opt.suite);
      ("experiments", Test_experiments.suite);
      ("edge-costs", Test_edge_costs.suite);
      ("golden", Test_golden.suite);
      ("coverage", Test_coverage.suite);
      ("theory", Test_theory.suite);
      ("integration", Test_integration.suite);
      ("runtime", Test_runtime.suite);
      ("check", Test_check.suite);
      ("server", Test_server.suite);
      ("obs", Test_obs.suite);
      ("tune", Test_tune.suite);
      ("cli", Test_cli.suite);
    ]
