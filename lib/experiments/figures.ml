module Graph = Mimd_ddg.Graph
module Config = Mimd_machine.Config
module Classify = Mimd_core.Classify
module Cyclic_sched = Mimd_core.Cyclic_sched
module Schedule = Mimd_core.Schedule
module Pattern = Mimd_core.Pattern
module Full_sched = Mimd_core.Full_sched
module Doacross = Mimd_doacross.Doacross
module Reorder = Mimd_doacross.Reorder
module W = Mimd_workloads

let buf_printf buf fmt = Printf.ksprintf (Buffer.add_string buf) fmt

let classification_text g =
  let cls = Classify.run g in
  Format.asprintf "%a" (Classify.pp ~names:(Graph.name g)) cls

let fig1 () =
  let g = W.Fig1.graph () in
  let buf = Buffer.create 512 in
  buf_printf buf "Figure 1: classification example (12 nodes)\n%s\n" (classification_text g);
  buf_printf buf "paper: Flow-in {A,B,C,D,F}, Cyclic {E,I,K,L}, Flow-out {G,H,J}\n";
  Buffer.contents buf

let fig3 () =
  let g = W.Fig3.graph () in
  let machine = W.Fig3.machine in
  let r = Cyclic_sched.solve ~graph:g ~machine () in
  let buf = Buffer.create 1024 in
  buf_printf buf "Figure 3: pattern emergence (7 Cyclic nodes, unit latency, k=1, 2 PEs)\n";
  buf_printf buf "%s\n" (Format.asprintf "%a" Pattern.pp r.Cyclic_sched.pattern);
  let sched = Pattern.expand r.Cyclic_sched.pattern ~iterations:5 in
  buf_printf buf "first 5 iterations (pattern repeats boxed region):\n%s"
    (Schedule.render_grid sched);
  Buffer.contents buf

let sp_line buf ~paper_ours ~paper_doacross (r : Compare.result) =
  buf_printf buf
    "percentage parallelism: ours %.1f (paper %.1f), DOACROSS %.1f (paper %.1f)\n"
    (Compare.ours_sp r) paper_ours (Compare.doacross_sp r) paper_doacross

let fig7 () =
  let g = W.Fig7.graph () in
  let machine = W.Fig7.machine in
  let buf = Buffer.create 4096 in
  buf_printf buf "Figure 7: the non-trivial example\n(a) source:\n%s\n" W.Fig7.source;
  let analysis = Mimd_loop_ir.Depend.analyze_string ~cost:Mimd_loop_ir.Cost.uniform W.Fig7.source in
  buf_printf buf "(b) dependence graph from the front end:\n%s\n"
    (Format.asprintf "%a" Graph.pp analysis.Mimd_loop_ir.Depend.graph);
  let r = Cyclic_sched.solve ~graph:g ~machine () in
  buf_printf buf "(d) schedule (k=2, 2 PEs) — pattern:\n%s\n"
    (Format.asprintf "%a" Pattern.pp r.Cyclic_sched.pattern);
  buf_printf buf "(e) transformed loop:\n%s\n" (Mimd_codegen.Rolled.render r.Cyclic_sched.pattern);
  let cmp = Compare.run ~label:"fig7" ~graph:g ~machine () in
  sp_line buf ~paper_ours:W.Fig7.paper_ours_sp ~paper_doacross:W.Fig7.paper_doacross_sp cmp;
  Buffer.contents buf

let fig8 () =
  let g = W.Fig7.graph () in
  let machine = W.Fig7.machine in
  let buf = Buffer.create 2048 in
  let natural = Doacross.analyze ~graph:g ~machine () in
  buf_printf buf "Figure 8(a): DOACROSS, natural order\n%s\n"
    (Format.asprintf "%a" Doacross.pp natural);
  buf_printf buf "%s\n" (Schedule.render_grid ~max_cycles:20 (Doacross.schedule natural ~iterations:4));
  let best = Reorder.exhaustive ~graph:g ~machine () in
  buf_printf buf "Figure 8(b): DOACROSS, optimal (exhaustive) reorder — %d orders tried\n%s\n"
    best.Reorder.orders_tried
    (Format.asprintf "%a" Doacross.pp best.Reorder.analysis);
  buf_printf buf "%s\n" (Schedule.render_grid ~max_cycles:20 (Doacross.schedule best.Reorder.analysis ~iterations:4));
  buf_printf buf
    "no reordering of this loop lets DOACROSS overlap iterations (paper: Sp stays 0)\n";
  Buffer.contents buf

let fig9_10 () =
  let g = W.Cytron86.graph () in
  let machine = W.Cytron86.machine in
  let buf = Buffer.create 4096 in
  buf_printf buf "Figure 9: the Cytron86 example (17 nodes)\n%s\n" (classification_text g);
  let full = Full_sched.run ~strategy:Full_sched.Separate ~graph:g ~machine ~iterations:30 () in
  buf_printf buf "%s\n" (Full_sched.report full);
  (match full.Full_sched.pattern with
  | Some p ->
    buf_printf buf "Cyclic pattern:\n%s\n" (Format.asprintf "%a" Pattern.pp p);
    buf_printf buf "Figure 10: transformed loop (Cyclic processors):\n%s\n"
      (Mimd_codegen.Rolled.render p)
  | None -> ());
  let cmp = Compare.run ~label:"cytron86" ~strategy:Full_sched.Separate ~graph:g ~machine () in
  sp_line buf ~paper_ours:W.Cytron86.paper_ours_sp ~paper_doacross:W.Cytron86.paper_doacross_sp cmp;
  Buffer.contents buf

let fig11 () =
  let g = W.Livermore.graph () in
  let machine = W.Livermore.machine in
  let buf = Buffer.create 4096 in
  buf_printf buf "Figure 11: Livermore Loop 18 (reconstruction, %d nodes)\n%s\n"
    (Graph.node_count g) (classification_text g);
  let full = Full_sched.run ~graph:g ~machine ~iterations:30 () in
  buf_printf buf "%s\n" (Full_sched.report full);
  (match full.Full_sched.pattern with
  | Some p ->
    buf_printf buf "Cyclic pattern:\n%s\n" (Format.asprintf "%a" Pattern.pp p);
    buf_printf buf "transformed loop (Cyclic processors):\n%s\n" (Mimd_codegen.Rolled.render p)
  | None -> ());
  let cmp = Compare.run ~label:"ll18" ~graph:g ~machine () in
  sp_line buf ~paper_ours:W.Livermore.paper_ours_sp ~paper_doacross:W.Livermore.paper_doacross_sp cmp;
  Buffer.contents buf

let fig12 () =
  let g = W.Elliptic.graph () in
  let machine = W.Elliptic.machine in
  let buf = Buffer.create 4096 in
  buf_printf buf "Figure 12: fifth-order elliptic wave filter (%d adds, %d muls)\n%s\n"
    W.Elliptic.adds W.Elliptic.muls (classification_text g);
  let full = Full_sched.run ~graph:g ~machine ~iterations:30 () in
  buf_printf buf "%s\n" (Full_sched.report full);
  (match full.Full_sched.pattern with
  | Some p ->
    buf_printf buf "Cyclic pattern:\n%s\n" (Format.asprintf "%a" Pattern.pp p);
    buf_printf buf "transformed loop (Cyclic processors):\n%s\n" (Mimd_codegen.Rolled.render p)
  | None -> ());
  let cmp = Compare.run ~label:"ewf" ~graph:g ~machine () in
  sp_line buf ~paper_ours:W.Elliptic.paper_ours_sp ~paper_doacross:W.Elliptic.paper_doacross_sp cmp;
  Buffer.contents buf

let examples_for_sweep () =
  [
    ("fig7", W.Fig7.graph ());
    ("cytron86", W.Cytron86.graph ());
    ("ll18", W.Livermore.graph ());
    ("ewf", W.Elliptic.graph ());
  ]

let sweep_k () =
  let buf = Buffer.create 2048 in
  buf_printf buf "Extension: Sp as the communication estimate k varies (2 PEs, N=100)\n";
  let t =
    Mimd_util.Tablefmt.create
      ~header:
        ("k" :: List.concat_map (fun (n, _) -> [ n ^ " ours"; n ^ " doacross" ]) (examples_for_sweep ()))
      ()
  in
  List.iter
    (fun k ->
      let cells =
        List.concat_map
          (fun (_, g) ->
            let machine = Config.make ~processors:2 ~comm_estimate:k in
            let r = Compare.run ~graph:g ~machine () in
            [
              Mimd_util.Tablefmt.cell_float (Compare.ours_sp r);
              Mimd_util.Tablefmt.cell_float (Compare.doacross_sp r);
            ])
          (examples_for_sweep ())
      in
      Mimd_util.Tablefmt.add_row t (string_of_int k :: cells))
    [ 0; 1; 2; 3; 4; 6; 8 ];
  Buffer.add_string buf (Mimd_util.Tablefmt.render t);
  Buffer.contents buf

let ablation () =
  let buf = Buffer.create 2048 in
  buf_printf buf "Extension: ablations (N=100)\n";
  let t =
    Mimd_util.Tablefmt.create
      ~header:
        [
          "loop";
          "ours separate";
          "ours folded";
          "procs separate";
          "procs folded";
          "doacross natural";
          "doacross reordered";
        ]
      ()
  in
  List.iter
    (fun (name, g) ->
      let machine = Config.make ~processors:2 ~comm_estimate:2 in
      let iterations = 100 in
      let seq = Mimd_core.Metrics.sequential_time g ~iterations in
      let sp p = float_of_int (seq - p) /. float_of_int seq *. 100.0 in
      let sep = Full_sched.run ~strategy:Full_sched.Separate ~graph:g ~machine ~iterations () in
      let fold = Full_sched.run ~strategy:Full_sched.Folded ~graph:g ~machine ~iterations () in
      let natural = Doacross.analyze ~graph:g ~machine () in
      let best = Reorder.best ~graph:g ~machine () in
      Mimd_util.Tablefmt.add_row t
        [
          name;
          Mimd_util.Tablefmt.cell_float (sp (Full_sched.parallel_time sep));
          Mimd_util.Tablefmt.cell_float (sp (Full_sched.parallel_time fold));
          string_of_int (Full_sched.total_processors sep);
          string_of_int (Full_sched.total_processors fold);
          Mimd_util.Tablefmt.cell_float (sp (Doacross.effective_makespan natural ~iterations));
          Mimd_util.Tablefmt.cell_float (sp (Doacross.effective_makespan best ~iterations));
        ])
    (examples_for_sweep ());
  Buffer.add_string buf (Mimd_util.Tablefmt.render t);
  Buffer.contents buf

let all () =
  [
    ("FIG1", fig1 ());
    ("FIG3", fig3 ());
    ("FIG7", fig7 ());
    ("FIG8", fig8 ());
    ("FIG9-10", fig9_10 ());
    ("FIG11", fig11 ());
    ("FIG12", fig12 ());
    ("SWEEP-K", sweep_k ());
    ("ABLATION", ablation ());
  ]
