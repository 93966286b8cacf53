module Graph = Mimd_ddg.Graph
module Gen = Mimd_ddg.Gen
module Config = Mimd_machine.Config
module Tablefmt = Mimd_util.Tablefmt

let iterations = 100

let sp ~seq ~par = float_of_int (seq - par) /. float_of_int seq *. 100.0

let processors () =
  let loops =
    [
      ("chain4x3", Gen.chain_of_cycles ~cycles:4 ~cycle_length:3 ());
      ("coupled8", Gen.coupled_recurrences ~width:8 ());
      ("wide8x3", Gen.wide_body ~width:8 ~depth:3 ());
      ("stencil8", Gen.stencil_1d ~points:8 ());
      ("ewf", Mimd_workloads.Elliptic.graph ());
    ]
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "Extension: Sp vs processor count (k=2, N=100)\n";
  let t =
    Tablefmt.create
      ~header:
        ("loop"
        :: List.concat_map
             (fun p -> [ Printf.sprintf "ours p=%d" p; Printf.sprintf "doacr p=%d" p ])
             [ 1; 2; 4; 8 ])
      ()
  in
  List.iter
    (fun (name, g) ->
      let seq = Mimd_doacross.Sequential.time g ~iterations in
      let cells =
        List.concat_map
          (fun p ->
            let machine = Config.make ~processors:p ~comm_estimate:2 in
            let ours =
              Mimd_core.Schedule.makespan
                (Mimd_core.Cyclic_sched.schedule_iterations ~graph:g ~machine ~iterations ())
            in
            let doa =
              Mimd_doacross.Doacross.effective_makespan
                (Mimd_doacross.Reorder.best ~graph:g ~machine ())
                ~iterations
            in
            [ Tablefmt.cell_float (sp ~seq ~par:ours); Tablefmt.cell_float (sp ~seq ~par:doa) ])
          [ 1; 2; 4; 8 ]
      in
      Tablefmt.add_row t (name :: cells))
    loops;
  Buffer.add_string buf (Tablefmt.render t);
  Buffer.contents buf

let grain_sources =
  [
    ( "saxpy-chain",
      "for i = 1 to n {\n\
      \  Y[i] = Y[i-1] + A[i-1] * X[i-1] + B[i-1] * X[i-1] + C[i-1];\n\
       }\n" );
    ( "poly-recurrence",
      "for i = 1 to n {\n\
      \  P[i] = (P[i-1] * P[i-1] + Q[i-1]) * R[i-1] + (Q[i-1] - R[i-1]) * P[i-1];\n\
      \  Q[i] = P[i] + Q[i-1] * R[i-1];\n\
      \  R[i] = Q[i] * R[i-1] + P[i];\n\
       }\n" );
    ( "coupled-update",
      "for i = 1 to n {\n\
      \  U[i] = U[i-1] + S[i-1] * (V[i-1] - U[i-1]);\n\
      \  V[i] = V[i-1] + S[i-1] * (U[i-1] - V[i-1]);\n\
      \  S[i] = S[i-1] * T[i-1] + U[i] * V[i];\n\
       }\n" );
  ]

let grain () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Extension (paper footnote 3): statement-level vs operation-level granularity (2 PEs, k=2)\n";
  let t =
    Tablefmt.create
      ~header:
        [ "loop"; "stmt nodes"; "op nodes"; "stmt c/iter"; "op c/iter"; "improvement" ]
      ()
  in
  let machine = Config.make ~processors:2 ~comm_estimate:2 in
  List.iter
    (fun (name, src) ->
      let rate graph =
        let norm = (Mimd_ddg.Unwind.normalize graph).Mimd_ddg.Unwind.graph in
        let sched =
          Mimd_core.Cyclic_sched.schedule_iterations ~graph:norm ~machine ~iterations ()
        in
        float_of_int (Mimd_core.Schedule.makespan sched) /. float_of_int iterations
      in
      let stmt = (Mimd_loop_ir.Depend.analyze_string src).Mimd_loop_ir.Depend.graph in
      let ops = (Mimd_loop_ir.Op_graph.run_string src).Mimd_loop_ir.Op_graph.graph in
      let rs = rate stmt and ro = rate ops in
      Tablefmt.add_row t
        [
          name;
          string_of_int (Graph.node_count stmt);
          string_of_int (Graph.node_count ops);
          Printf.sprintf "%.2f" rs;
          Printf.sprintf "%.2f" ro;
          Printf.sprintf "%.0f%%" ((rs -. ro) /. rs *. 100.0);
        ])
    grain_sources;
  Buffer.add_string buf (Tablefmt.render t);
  Buffer.add_string buf
    "(operation nodes expose the parallelism inside statements; both rates count one\n\
     original iteration, whatever the unwinding factor)\n";
  Buffer.contents buf

let topology () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Extension: uniform-k schedules on distance-sensitive interconnects (8 PEs, k=2, N=100)\n";
  let g = Gen.coupled_recurrences ~width:8 ~coupling:2 () in
  let machine = Config.make ~processors:8 ~comm_estimate:2 in
  let sched = Mimd_core.Cyclic_sched.schedule_iterations ~graph:g ~machine ~iterations () in
  let seq = Mimd_doacross.Sequential.time g ~iterations in
  let t = Tablefmt.create ~header:[ "interconnect"; "diameter"; "sim makespan"; "Sp" ] () in
  List.iter
    (fun shape ->
      let links =
        Mimd_sim.Links.topology_aware ~shape ~processors:8 ~base:2 ~per_hop:2 ~mm:1 ~seed:5
      in
      let out = Mimd_sim.Exec.simulate_schedule ~schedule:sched ~links () in
      Tablefmt.add_row t
        [
          Mimd_sim.Topology.describe shape;
          string_of_int (Mimd_sim.Topology.diameter shape ~processors:8);
          string_of_int out.Mimd_sim.Exec.makespan;
          Tablefmt.cell_float (sp ~seq ~par:out.Mimd_sim.Exec.makespan);
        ])
    [ Mimd_sim.Topology.Crossbar; Mimd_sim.Topology.Ring; Mimd_sim.Topology.Mesh 4;
      Mimd_sim.Topology.Hypercube ];
  Buffer.add_string buf (Tablefmt.render t);
  Buffer.contents buf

let cyclic_core g =
  let cls = Mimd_core.Classify.run g in
  if Mimd_core.Classify.is_doall cls then g
  else begin
    let core, _, _ = Mimd_core.Classify.cyclic_subgraph g cls in
    core
  end

let workloads_for_ablation () =
  [
    ("fig7", Mimd_workloads.Fig7.graph ());
    ("cytron86-core", cyclic_core (Mimd_workloads.Cytron86.graph ()));
    ("ll18-core", cyclic_core (Mimd_workloads.Livermore.graph ()));
    ("ewf-core", cyclic_core (Mimd_workloads.Elliptic.graph ()));
  ]

let ordering () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Ablation (footnote 7): ready-queue pop order, lexicographic vs critical-path (2 PEs, k=2)
";
  let t =
    Tablefmt.create ~header:[ "loop"; "lex rate"; "critical-path rate"; "winner" ] ()
  in
  List.iter
    (fun (name, core) ->
      let machine = Config.make ~processors:2 ~comm_estimate:2 in
      let rate order =
        Mimd_core.Pattern.rate
          (Mimd_core.Cyclic_sched.solve ~order ~graph:core ~machine ()).Mimd_core.Cyclic_sched.pattern
      in
      let lex = rate Mimd_core.Cyclic_sched.Lexicographic in
      let cp = rate Mimd_core.Cyclic_sched.Critical_path in
      Tablefmt.add_row t
        [
          name;
          Printf.sprintf "%.2f" lex;
          Printf.sprintf "%.2f" cp;
          (if cp < lex then "critical-path" else if lex < cp then "lexicographic" else "tie");
        ])
    (workloads_for_ablation ());
  Buffer.add_string buf (Tablefmt.render t);
  Buffer.contents buf

let unrolling () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Extension: unroll-factor search (cycles per ORIGINAL iteration, 2 PEs, k=2)
";
  List.iter
    (fun (name, core) ->
      let machine = Config.make ~processors:2 ~comm_estimate:2 in
      let t = Mimd_core.Unroll_opt.search ~max_factor:4 ~graph:core ~machine () in
      Buffer.add_string buf (Printf.sprintf "--- %s ---
" name);
      Buffer.add_string buf (Mimd_core.Unroll_opt.render t))
    (workloads_for_ablation ());
  Buffer.contents buf

let estimate () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Extension: compile-time k misestimation (true cost 3, N=100, 2 PEs)\n";
  let t =
    Tablefmt.create
      ~header:("k_est" :: List.map (fun (n, _) -> n ^ " Sp") (workloads_for_ablation ()))
      ()
  in
  let true_links = Mimd_sim.Links.fixed 3 in
  List.iter
    (fun k_est ->
      let cells =
        List.map
          (fun (_, core) ->
            let machine = Config.make ~processors:2 ~comm_estimate:k_est in
            let sched =
              Mimd_core.Cyclic_sched.schedule_iterations ~graph:core ~machine
                ~iterations:100 ()
            in
            let out =
              Mimd_sim.Exec.simulate_schedule ~schedule:sched ~links:true_links ()
            in
            let seq = Mimd_doacross.Sequential.time core ~iterations:100 in
            Tablefmt.cell_float (sp ~seq ~par:out.Mimd_sim.Exec.makespan))
          (workloads_for_ablation ())
      in
      Tablefmt.add_row t (string_of_int k_est :: cells))
    [ 0; 1; 3; 5; 7 ];
  Buffer.add_string buf (Tablefmt.render t);
  Buffer.add_string buf
    "(underestimating k packs work across processors and pays at run time;\n\
     overestimating serialises more than necessary — k_est = true k is the sweet spot)\n";
  Buffer.contents buf

let kernels () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    "Textual kernels through the whole pipeline (2 PEs, k=2, N=50; 'values' = parallel == sequential)
";
  let t =
    Tablefmt.create
      ~header:
        [ "kernel"; "nodes"; "cyclic"; "ours Sp"; "ours Sp (op-level)"; "doacross Sp"; "values" ]
      ()
  in
  let machine = Config.make ~processors:2 ~comm_estimate:2 in
  let n = 50 in
  List.iter
    (fun (k : Mimd_workloads.Kernels_src.t) ->
      let parsed = Mimd_loop_ir.Parser.parse k.Mimd_workloads.Kernels_src.source in
      let loop =
        if Mimd_loop_ir.Ast.is_flat parsed then parsed
        else Mimd_loop_ir.If_convert.run parsed
      in
      let g = (Mimd_loop_ir.Depend.analyze loop).Mimd_loop_ir.Depend.graph in
      let cls = Mimd_core.Classify.run g in
      let seq = Mimd_doacross.Sequential.time g ~iterations:n in
      let ours_sched =
        Mimd_core.Cyclic_sched.schedule_iterations ~graph:g ~machine ~iterations:n ()
      in
      let ours = Mimd_core.Schedule.makespan ours_sched in
      let doa =
        Mimd_doacross.Doacross.effective_makespan
          (Mimd_doacross.Reorder.best ~graph:g ~machine ())
          ~iterations:n
      in
      let program = Mimd_codegen.From_schedule.run ours_sched in
      let verdict =
        let outcome = Mimd_runtime.Exec_compiled.run_inline ~loop ~program () in
        match Mimd_runtime.Value_run.check_against_sequential ~loop ~iterations:n outcome with
        | Ok () -> "OK"
        | Error _ -> "MISMATCH"
      in
      (* Operation-level granularity (footnote 3): same sequential
         work, finer nodes. *)
      let ops = Mimd_workloads.Kernels_src.analyze ~lower:true k in
      let ours_ops =
        Mimd_core.Schedule.makespan
          (Mimd_core.Cyclic_sched.schedule_iterations ~graph:ops ~machine ~iterations:n ())
      in
      let seq_ops = Mimd_doacross.Sequential.time ops ~iterations:n in
      Tablefmt.add_row t
        [
          k.Mimd_workloads.Kernels_src.name;
          string_of_int (Graph.node_count g);
          string_of_int (List.length cls.Mimd_core.Classify.cyclic);
          Tablefmt.cell_float (sp ~seq ~par:ours);
          Tablefmt.cell_float (sp ~seq:seq_ops ~par:ours_ops);
          Tablefmt.cell_float (sp ~seq ~par:doa);
          verdict;
        ])
    (Mimd_workloads.Kernels_src.all ());
  Buffer.add_string buf (Tablefmt.render t);
  Buffer.contents buf

let all () =
  [
    ("SCALE-P", processors ());
    ("GRAIN", grain ());
    ("TOPOLOGY", topology ());
    ("ORDERING", ordering ());
    ("UNROLL", unrolling ());
    ("ESTIMATE", estimate ());
    ("KERNELS", kernels ());
  ]
