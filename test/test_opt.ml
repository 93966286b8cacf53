(* Scheduler options and optimisations: ready-queue ordering,
   unroll-factor search, and the textual kernel pack. *)

open Helpers
module Cyclic_sched = Mimd_core.Cyclic_sched
module Pattern = Mimd_core.Pattern
module Schedule = Mimd_core.Schedule
module Unroll_opt = Mimd_core.Unroll_opt
module Kernels = Mimd_workloads.Kernels_src
module Graph = Mimd_ddg.Graph

(* ---------------------------------------------------------------- *)
(* Ready-queue ordering                                              *)

let test_order_both_valid () =
  List.iter
    (fun order ->
      let r =
        Cyclic_sched.solve ~order ~graph:(Mimd_workloads.Elliptic.graph ())
          ~machine:(machine ()) ()
      in
      let sched = Pattern.expand r.Cyclic_sched.pattern ~iterations:20 in
      assert_valid sched)
    [ Cyclic_sched.Lexicographic; Cyclic_sched.Critical_path ]

let test_order_deterministic_each () =
  List.iter
    (fun order ->
      let solve () =
        Cyclic_sched.solve ~order ~graph:(Mimd_workloads.Livermore.graph () |> fun g ->
          let cls = Mimd_core.Classify.run g in
          let core, _, _ = Mimd_core.Classify.cyclic_subgraph g cls in
          core)
          ~machine:(machine ()) ()
      in
      let r1 = solve () and r2 = solve () in
      check_bool "same pattern" true
        (r1.Cyclic_sched.pattern.Pattern.body = r2.Cyclic_sched.pattern.Pattern.body))
    [ Cyclic_sched.Lexicographic; Cyclic_sched.Critical_path ]

let test_order_fig7_same_rate () =
  (* On fig7 both orders reach the same 3 cycles/iteration. *)
  List.iter
    (fun order ->
      let r = Cyclic_sched.solve ~order ~graph:(fig7 ()) ~machine:(machine ()) () in
      Alcotest.(check (float 0.001)) "rate 3" 3.0 (Pattern.rate r.Cyclic_sched.pattern))
    [ Cyclic_sched.Lexicographic; Cyclic_sched.Critical_path ]

let prop_order_schedules_valid =
  qtest ~count:40 "critical-path order produces valid schedules" gen_cyclic_graph
    print_graph_spec (fun spec ->
      let g = build_cyclic spec in
      let sched =
        Cyclic_sched.schedule_iterations ~order:Cyclic_sched.Critical_path ~graph:g
          ~machine:(machine ~p:3 ~k:2 ()) ~iterations:12 ()
      in
      Schedule.validate sched = Ok ())

(* ---------------------------------------------------------------- *)
(* Unroll-factor search                                              *)

let test_unroll_curve_shape () =
  let t = Unroll_opt.search ~max_factor:3 ~graph:(fig7 ()) ~machine:(machine ()) () in
  check_int "three points" 3 (List.length t.Unroll_opt.curve);
  List.iter
    (fun (pt : Unroll_opt.point) ->
      check_bool "rate respects recurrence bound" true
        (pt.rate >= Mimd_ddg.Reach.recurrence_bound (fig7 ()) -. 0.01))
    t.Unroll_opt.curve

let test_unroll_chosen_never_worse_than_u1 () =
  List.iter
    (fun g ->
      let t = Unroll_opt.search ~max_factor:3 ~graph:g ~machine:(machine ()) () in
      let u1 = List.hd t.Unroll_opt.curve in
      check_bool "chosen <= factor-1 rate (within tolerance)" true
        (t.Unroll_opt.chosen.Unroll_opt.rate <= u1.Unroll_opt.rate *. 1.021))
    [ fig7 (); two_cycle (); Mimd_workloads.Elliptic.graph () |> fun g ->
      let cls = Mimd_core.Classify.run g in
      let core, _, _ = Mimd_core.Classify.cyclic_subgraph g cls in
      core ]

let test_unroll_render () =
  let t = Unroll_opt.search ~max_factor:2 ~graph:(two_cycle ()) ~machine:(machine ()) () in
  check_bool "renders" true (String.length (Unroll_opt.render t) > 40)

let test_unroll_rejects () =
  check_bool "max_factor < 1" true
    (match Unroll_opt.search ~max_factor:0 ~graph:(fig7 ()) ~machine:(machine ()) () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------------------------------------------------------------- *)
(* Textual kernels                                                   *)

let test_kernels_analyse () =
  List.iter
    (fun (k : Kernels.t) ->
      let g = Kernels.analyze k in
      check_bool (k.name ^ " non-empty") true (Graph.node_count g > 0);
      check_bool (k.name ^ " body executable") true (Mimd_ddg.Topo.is_zero_acyclic g))
    (Kernels.all ())

let test_kernels_doall_cases () =
  let doall name =
    let k = List.find (fun (k : Kernels.t) -> k.name = name) (Kernels.all ()) in
    Mimd_core.Classify.is_doall (Mimd_core.Classify.run (Kernels.analyze k))
  in
  check_bool "ll1 is DOALL" true (doall "ll1-hydro");
  check_bool "ll12 is DOALL" true (doall "ll12-first-diff");
  check_bool "ll5 is not" false (doall "ll5-tridiag");
  check_bool "horner is not" false (doall "horner")

let test_kernels_schedule_end_to_end () =
  List.iter
    (fun (k : Kernels.t) ->
      let g = Kernels.analyze k in
      let full =
        Mimd_core.Full_sched.run ~graph:g ~machine:(machine ()) ~iterations:20 ()
      in
      check_bool (k.name ^ " validates") true
        (Schedule.validate full.Mimd_core.Full_sched.schedule = Ok ()))
    (Kernels.all ())

let test_kernels_values_correct () =
  (* Every textual kernel computes bit-identical values in parallel. *)
  List.iter
    (fun (k : Kernels.t) ->
      let { Mimd_loop_ir.Depend.loop; graph; _ } =
        Mimd_loop_ir.Depend.analyze_string k.Kernels.source
      in
      let schedule =
        Cyclic_sched.schedule_iterations ~graph ~machine:(machine ()) ~iterations:20 ()
      in
      let program = Mimd_codegen.From_schedule.run schedule in
      let outcome = Mimd_runtime.Exec_compiled.run_inline ~loop ~program () in
      let spec = Mimd_runtime.Value_run.spec ~loop ~iterations:20 in
      match
        Result.bind
          (Mimd_runtime.Value_run.check_instances ~spec
             outcome.Mimd_runtime.Value_run.instances)
          (fun () ->
            Mimd_runtime.Value_run.check_against_sequential ~loop ~iterations:20 outcome)
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" k.Kernels.name e)
    (Kernels.all ())

let test_kernels_lowering () =
  (* Operation-level lowering yields strictly more nodes on the
     expression-heavy kernels. *)
  let k = Kernels.state_space2 () in
  let stmt = Kernels.analyze k in
  let ops = Kernels.analyze ~lower:true k in
  check_bool "more op nodes" true (Graph.node_count ops > Graph.node_count stmt)

let suite =
  [
    Alcotest.test_case "order: both produce valid schedules" `Quick test_order_both_valid;
    Alcotest.test_case "order: deterministic" `Quick test_order_deterministic_each;
    Alcotest.test_case "order: fig7 rate unchanged" `Quick test_order_fig7_same_rate;
    prop_order_schedules_valid;
    Alcotest.test_case "unroll: curve shape" `Quick test_unroll_curve_shape;
    Alcotest.test_case "unroll: chosen never worse" `Quick test_unroll_chosen_never_worse_than_u1;
    Alcotest.test_case "unroll: render" `Quick test_unroll_render;
    Alcotest.test_case "unroll: rejects" `Quick test_unroll_rejects;
    Alcotest.test_case "kernels: analyse" `Quick test_kernels_analyse;
    Alcotest.test_case "kernels: DOALL detection" `Quick test_kernels_doall_cases;
    Alcotest.test_case "kernels: full pipeline" `Quick test_kernels_schedule_end_to_end;
    Alcotest.test_case "kernels: value correctness" `Quick test_kernels_values_correct;
    Alcotest.test_case "kernels: lowering grows nodes" `Quick test_kernels_lowering;
  ]
