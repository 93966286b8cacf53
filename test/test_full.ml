open Helpers
module Graph = Mimd_ddg.Graph
module Schedule = Mimd_core.Schedule
module Flow_sched = Mimd_core.Flow_sched
module Full_sched = Mimd_core.Full_sched
module Classify = Mimd_core.Classify

(* ---------------------------------------------------------------- *)
(* Flow_sched primitives                                             *)

let test_processors_needed () =
  (* The paper's Cytron86 numbers: L = 15, H = 6 -> 3 processors. *)
  check_int "paper case" 3 (Flow_sched.processors_needed ~subset_latency:15 ~height:6 ~iter_shift:1);
  check_int "exact fit" 2 (Flow_sched.processors_needed ~subset_latency:12 ~height:6 ~iter_shift:1);
  check_int "empty subset" 0 (Flow_sched.processors_needed ~subset_latency:0 ~height:6 ~iter_shift:1);
  check_int "iter shift scales" 5
    (Flow_sched.processors_needed ~subset_latency:15 ~height:6 ~iter_shift:2)

let test_flow_in_round_robin () =
  (* Three flow-in chains of one node each over 2 processors. *)
  let g = graph_of ~latencies:[| 1; 1; 1 |] ~edges:[] in
  let entries =
    Flow_sched.flow_in_entries ~graph:g ~machine:(machine ()) ~flow_in:[ 0; 1; 2 ] ~procs:2
      ~base_proc:5 ~iterations:4
  in
  check_int "all placed" 12 (List.length entries);
  List.iter
    (fun (e : Schedule.entry) ->
      check_int "round robin" (5 + (e.inst.iter mod 2)) e.proc)
    entries

let test_flow_in_respects_deps () =
  (* 0 -> 1 (distance 1) inside the flow-in set, landing on different
     processors: iteration i of node 1 waits for iteration i-1 of node
     0 plus communication. *)
  let g = graph_of ~latencies:[| 2; 1 |] ~edges:[ (0, 1, 1) ] in
  let entries =
    Flow_sched.flow_in_entries ~graph:g ~machine:(machine ~k:2 ()) ~flow_in:[ 0; 1 ]
      ~procs:2 ~base_proc:0 ~iterations:6
  in
  let find n i =
    List.find (fun (e : Schedule.entry) -> e.inst.node = n && e.inst.iter = i) entries
  in
  for i = 1 to 5 do
    let producer = find 0 (i - 1) and consumer = find 1 i in
    let comm = if producer.proc = consumer.proc then 0 else 2 in
    check_bool "waits for data" true (consumer.start >= producer.start + 2 + comm)
  done

let test_required_shift_zero_when_independent () =
  let g = graph_of ~latencies:[| 1; 1 |] ~edges:[ (1, 1, 1) ] in
  let shift =
    Flow_sched.required_shift ~graph:g ~machine:(machine ()) ~flow_entry:(fun _ -> None)
      ~consumers:[ Schedule.{ inst = { node = 1; iter = 0 }; proc = 0; start = 0 } ]
  in
  check_int "no flow producers" 0 shift

let test_required_shift_positive () =
  (* Flow-in node 0 finishes at 3 on PE9; cyclic consumer starts at 0
     on PE0, needing 3 + k(2) = 5 more cycles of delay. *)
  let g = graph_of ~latencies:[| 3; 1 |] ~edges:[ (0, 1, 0); (1, 1, 1) ] in
  let flow_entry (inst : Schedule.instance) =
    if inst.node = 0 then Some Schedule.{ inst; proc = 9; start = 0 } else None
  in
  let machine = Mimd_machine.Config.make ~processors:10 ~comm_estimate:2 in
  let shift =
    Flow_sched.required_shift ~graph:g ~machine ~flow_entry
      ~consumers:[ Schedule.{ inst = { node = 1; iter = 0 }; proc = 0; start = 0 } ]
  in
  check_int "shift = finish + comm" 5 shift

(* ---------------------------------------------------------------- *)
(* Full_sched                                                        *)

let cytron_graph () = Mimd_workloads.Cytron86.graph ()

let test_full_cytron_shape () =
  (* The paper: Cyclic pattern height 6, ceil(15/6) = 3 Flow-in
     processors, 5 subloops total. *)
  let full =
    Full_sched.run ~strategy:Full_sched.Separate ~graph:(cytron_graph ())
      ~machine:Mimd_workloads.Cytron86.machine ~iterations:40 ()
  in
  check_int "cyclic procs" 2 full.Full_sched.cyclic_processors;
  check_int "flow-in procs (paper: 3)" 3 full.Full_sched.flow_in_processors;
  check_int "flow-out procs" 0 full.Full_sched.flow_out_processors;
  check_int "five subloops" 5 (Full_sched.total_processors full);
  (match full.Full_sched.pattern with
  | Some p -> check_int "pattern height 6" 6 p.Mimd_core.Pattern.height
  | None -> Alcotest.fail "expected a pattern");
  assert_valid full.Full_sched.schedule

let test_full_all_instances_scheduled () =
  let g = cytron_graph () in
  let full =
    Full_sched.run ~strategy:Full_sched.Separate ~graph:g
      ~machine:Mimd_workloads.Cytron86.machine ~iterations:25 ()
  in
  check_int "every instance placed" (Graph.node_count g * 25)
    (Schedule.instance_count full.Full_sched.schedule)

let test_full_folded_uses_core_procs_only () =
  let full =
    Full_sched.run ~strategy:Full_sched.Folded ~graph:(cytron_graph ())
      ~machine:Mimd_workloads.Cytron86.machine ~iterations:25 ()
  in
  check_bool "folded" true full.Full_sched.folded;
  check_int "no extra procs" 2 (Full_sched.total_processors full);
  assert_valid full.Full_sched.schedule

let test_full_auto_picks_reasonably () =
  let g = cytron_graph () in
  let machine = Mimd_workloads.Cytron86.machine in
  let auto = Full_sched.run ~graph:g ~machine ~iterations:25 () in
  let sep = Full_sched.run ~strategy:Full_sched.Separate ~graph:g ~machine ~iterations:25 () in
  let fold = Full_sched.run ~strategy:Full_sched.Folded ~graph:g ~machine ~iterations:25 () in
  let best = min (Full_sched.parallel_time sep) (Full_sched.parallel_time fold) in
  check_bool "auto within tolerance of best" true
    (float_of_int (Full_sched.parallel_time auto) <= (1.05 *. float_of_int best) +. 1.0)

let test_full_doall () =
  let g = graph_of ~latencies:[| 1; 1 |] ~edges:[ (0, 1, 0) ] in
  let full = Full_sched.run ~graph:g ~machine:(machine ()) ~iterations:10 () in
  check_bool "no pattern for DOALL" true (full.Full_sched.pattern = None);
  check_int "all scheduled" 20 (Schedule.instance_count full.Full_sched.schedule);
  assert_valid full.Full_sched.schedule

let test_full_normalizes_distances () =
  (* Distance-2 recurrence: Full_sched must unwind transparently. *)
  let g = graph_of ~latencies:[| 1; 1 |] ~edges:[ (0, 1, 0); (1, 0, 2) ] in
  let full = Full_sched.run ~graph:g ~machine:(machine ()) ~iterations:10 () in
  (* 10 original iterations = 5 unwound ones, 4 nodes each. *)
  check_int "unwound instances" 20 (Schedule.instance_count full.Full_sched.schedule);
  assert_valid full.Full_sched.schedule

let test_full_rejects_zero_iterations () =
  check_bool "rejects" true
    (match Full_sched.run ~graph:(fig7 ()) ~machine:(machine ()) ~iterations:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_full_flow_out_scheduled_after_producers () =
  (* ll5 has a Flow-out store: check it never starts before its
     producer plus communication. *)
  let k = (Mimd_workloads.Recurrences.ll5 ()).Mimd_workloads.Recurrences.graph in
  let full = Full_sched.run ~strategy:Full_sched.Separate ~graph:k ~machine:(machine ()) ~iterations:20 () in
  assert_valid full.Full_sched.schedule

let test_full_startup_shift_nonnegative () =
  List.iter
    (fun g ->
      let full = Full_sched.run ~strategy:Full_sched.Separate ~graph:g ~machine:(machine ()) ~iterations:15 () in
      check_bool "shift >= 0" true (full.Full_sched.startup_shift >= 0);
      assert_valid full.Full_sched.schedule)
    [ cytron_graph (); Mimd_workloads.Livermore.graph (); Mimd_workloads.Elliptic.graph () ]

let test_report_mentions_processors () =
  let full = Full_sched.run ~graph:(fig7 ()) ~machine:(machine ()) ~iterations:10 () in
  let r = Full_sched.report full in
  check_bool "non-empty" true (String.length r > 40)

let prop_full_schedules_simulate_without_deadlock =
  (* The complete pipeline — Cyclic core + Flow processors + startup
     shift — lowers to programs that run to completion and no slower
     than the static plan. *)
  qtest ~count:25 "full schedules simulate cleanly" gen_any_graph print_graph_spec
    (fun spec ->
      let g = build_cyclic spec in
      let full = Full_sched.run ~graph:g ~machine:(machine ~p:2 ~k:2 ()) ~iterations:8 () in
      let out =
        Mimd_sim.Exec.simulate_schedule ~schedule:full.Full_sched.schedule
          ~links:(Mimd_sim.Links.fixed 2) ()
      in
      out.Mimd_sim.Exec.makespan <= Schedule.makespan full.Full_sched.schedule)

let test_full_doall_simulates () =
  let g = graph_of ~latencies:[| 2; 1; 1 |] ~edges:[ (0, 1, 0); (0, 2, 0) ] in
  let full = Full_sched.run ~graph:g ~machine:(machine ~p:3 ()) ~iterations:12 () in
  let out =
    Mimd_sim.Exec.simulate_schedule ~schedule:full.Full_sched.schedule
      ~links:(Mimd_sim.Links.fixed 2) ()
  in
  check_bool "completes" true (out.Mimd_sim.Exec.makespan > 0)

let prop_full_valid_on_random_loops =
  qtest ~count:25 "full pipeline validates on random full loops" gen_any_graph
    print_graph_spec (fun spec ->
      let g = build_cyclic spec in
      let full = Full_sched.run ~graph:g ~machine:(machine ~p:2 ~k:2 ()) ~iterations:10 () in
      Schedule.validate full.Full_sched.schedule = Ok ())

(* fig1 and ewf well past the benchmark's trip counts: every
   per-instance structure (timelines, schedule index, lowering tables)
   is exercised at a size where a quadratic term would dominate.  A
   correctness check, not a timing test. *)
let test_full_large_n_validates () =
  List.iter
    (fun (name, p, k) ->
      let src = In_channel.with_open_text ("../examples/loops/" ^ name) In_channel.input_all in
      let graph = (Mimd_loop_ir.Depend.analyze_string src).Mimd_loop_ir.Depend.graph in
      let full = Full_sched.run ~graph ~machine:(machine ~p ~k ()) ~iterations:4000 () in
      let report = Mimd_check.Validate.full full in
      check_int (name ^ ": issues") 0 (List.length report.Mimd_check.Validate.issues);
      check_int (name ^ ": iterations") 4000 (Schedule.iterations full.Full_sched.schedule))
    [ ("fig1.loop", 2, 2); ("ewf.loop", 4, 4) ]

(* A latency-1 self-recurrence that runs ahead of the rest of the
   Cyclic core can leave two identical configuration windows whose
   slice lacks its instances: this loop's core has 5 nodes, and the
   first verified candidate's body held 4 instances, so the expanded
   schedule never contained D_5.  A pattern whose body does not hold
   every node [iter_shift] times is now rejected and the search goes
   on; both strategies must validate clean. *)
let test_pattern_body_holds_every_node () =
  let loop = Mimd_workloads.Random_loop.generate_loop ~fanout:0.5 ~seed:3698 () in
  let graph = (Mimd_loop_ir.Depend.analyze loop).Mimd_loop_ir.Depend.graph in
  List.iter
    (fun (label, strategy) ->
      let full =
        Full_sched.run ~strategy ~graph ~machine:(machine ~p:2 ~k:3 ()) ~iterations:6 ()
      in
      (match full.Full_sched.pattern with
      | None -> Alcotest.failf "%s: no pattern" label
      | Some pat ->
        check_int (label ^ ": body = nodes x iter_shift")
          (Mimd_ddg.Graph.node_count pat.Mimd_core.Pattern.graph * pat.Mimd_core.Pattern.iter_shift)
          (Mimd_core.Pattern.nodes_per_repetition pat));
      let report = Mimd_check.Validate.full full in
      check_int (label ^ ": issues") 0 (List.length report.Mimd_check.Validate.issues))
    [ ("auto", Full_sched.Auto); ("separate", Full_sched.Separate) ]

(* [Auto] prunes the Separate schedule with a pattern-only lower bound
   on its makespan; the reference below is the rule with nothing
   pruned: build both, keep the fold when mf <= ms (1 + tolerance), and
   fall back to the fold when the core has no pattern. *)
let build_both_rule ~fold_tolerance ~graph ~machine ~iterations =
  let folded () = Full_sched.run ~strategy:Full_sched.Folded ~graph ~machine ~iterations () in
  match Full_sched.run ~strategy:Full_sched.Separate ~graph ~machine ~iterations () with
  | separate ->
    let fold = folded () in
    let ms = Full_sched.parallel_time separate and mf = Full_sched.parallel_time fold in
    if float_of_int mf <= float_of_int ms *. (1.0 +. fold_tolerance) then fold else separate
  | exception Mimd_core.Cyclic_sched.No_pattern _ -> folded ()

let prop_auto_matches_build_both =
  let gen =
    QCheck2.Gen.(
      let* seed = int_range 1 100_000 in
      let* shape = int_range 0 2 in
      let* p = int_range 1 4 in
      let* k = oneofl [ 0; 1; 2; 4 ] in
      let* n = oneofl [ 1; 2; 7; 40; 150 ] in
      let* tol = oneofl [ 0.0; 0.05; 0.5 ] in
      return (seed, shape, p, k, n, tol))
  in
  let print (seed, shape, p, k, n, tol) =
    Printf.sprintf "seed=%d shape=%d p=%d k=%d n=%d tol=%g" seed shape p k n tol
  in
  (* shape 0/1: loop-IR draws without/with fan-out; shape 2: the
     paper's 40-node random loop, Flow-in and Flow-out included *)
  qtest ~count:120 "auto: pruned decision == build-both rule" gen print
    (fun (seed, shape, p, k, n, fold_tolerance) ->
      let graph =
        match shape with
        | 2 -> Mimd_workloads.Random_loop.generate ~seed ()
        | _ ->
          let fanout = if shape = 0 then 0.0 else 0.5 in
          let loop = Mimd_workloads.Random_loop.generate_loop ~fanout ~seed () in
          (Mimd_loop_ir.Depend.analyze loop).Mimd_loop_ir.Depend.graph
      in
      let machine = machine ~p ~k () in
      let auto = Full_sched.run ~fold_tolerance ~graph ~machine ~iterations:n () in
      let want = build_both_rule ~fold_tolerance ~graph ~machine ~iterations:n in
      auto.Full_sched.folded = want.Full_sched.folded
      && Full_sched.output_fingerprint auto = Full_sched.output_fingerprint want)

(* A core whose pattern search gives up (a one-iteration budget) still
   falls back to the folded greedy with no pattern — after one search,
   not two — and the [compile.auto] instant says Separate was never
   built. *)
let test_auto_no_pattern_falls_back () =
  let graph = Mimd_workloads.Elliptic.graph () in
  let machine = machine () in
  let run strategy =
    Full_sched.run ~strategy ~max_iterations:1 ~graph ~machine ~iterations:30 ()
  in
  let auto, events =
    with_tracing (fun () ->
        let auto = run Full_sched.Auto in
        (auto, export_events ()))
  in
  let named name =
    List.filter (fun ev -> Mimd_server.Json.(member "name" ev = Some (String name))) events
  in
  check_bool "folded" true auto.Full_sched.folded;
  check_bool "no pattern" true (auto.Full_sched.pattern = None);
  check_string "same schedule as Folded"
    (Full_sched.output_fingerprint (run Full_sched.Folded))
    (Full_sched.output_fingerprint auto);
  check_int "one pattern search" 1 (List.length (named "compile.cyclic_sched"));
  match named "compile.auto" with
  | [ ev ] ->
    let arg key =
      match Mimd_server.Json.(member "args" ev) with
      | Some args -> Mimd_server.Json.(member key args)
      | None -> None
    in
    check_bool "separate not built" true
      (arg "separate_built" = Some (Mimd_server.Json.String "false"))
  | evs -> Alcotest.failf "expected one compile.auto instant, got %d" (List.length evs)

let suite =
  [
    Alcotest.test_case "flow: processors_needed (paper: 3)" `Quick test_processors_needed;
    Alcotest.test_case "flow: round-robin placement" `Quick test_flow_in_round_robin;
    Alcotest.test_case "flow: dependences respected" `Quick test_flow_in_respects_deps;
    Alcotest.test_case "flow: zero shift when independent" `Quick test_required_shift_zero_when_independent;
    Alcotest.test_case "flow: positive shift computed" `Quick test_required_shift_positive;
    Alcotest.test_case "full: cytron86 paper shape (5 subloops)" `Quick test_full_cytron_shape;
    Alcotest.test_case "full: all instances scheduled" `Quick test_full_all_instances_scheduled;
    Alcotest.test_case "full: folded stays on core procs" `Quick test_full_folded_uses_core_procs_only;
    Alcotest.test_case "full: auto close to best strategy" `Quick test_full_auto_picks_reasonably;
    Alcotest.test_case "full: DOALL loops" `Quick test_full_doall;
    Alcotest.test_case "full: distance > 1 unwound" `Quick test_full_normalizes_distances;
    Alcotest.test_case "full: rejects 0 iterations" `Quick test_full_rejects_zero_iterations;
    Alcotest.test_case "full: flow-out after producers" `Quick test_full_flow_out_scheduled_after_producers;
    Alcotest.test_case "full: startup shift sane" `Quick test_full_startup_shift_nonnegative;
    Alcotest.test_case "full: report renders" `Quick test_report_mentions_processors;
    prop_full_valid_on_random_loops;
    prop_full_schedules_simulate_without_deadlock;
    Alcotest.test_case "full: DOALL schedules simulate" `Quick test_full_doall_simulates;
    Alcotest.test_case "full: fig1 and ewf validate at n=4000" `Quick test_full_large_n_validates;
    prop_auto_matches_build_both;
    Alcotest.test_case "full: pattern body holds every node (seed 3698)" `Quick
      test_pattern_body_holds_every_node;
    Alcotest.test_case "full: auto without a pattern folds after one search" `Quick
      test_auto_no_pattern_falls_back;
  ]
