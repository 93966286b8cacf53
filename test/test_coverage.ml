(* Small exact tests for surfaces not covered elsewhere: printers,
   accessors, option handling. *)

open Helpers
module Graph = Mimd_ddg.Graph
module Schedule = Mimd_core.Schedule
module Metrics = Mimd_core.Metrics

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_graph_pp () =
  let s = Format.asprintf "%a" Graph.pp (fig7 ()) in
  check_bool "header" true (contains s "graph (5 nodes, 7 edges)");
  check_bool "edge line" true (contains s "E -> A dist=1")

let test_graph_pp_cost () =
  let b = Graph.builder () in
  let x = Graph.add_node b "x" in
  Graph.add_edge b ~cost:1 ~src:x ~dst:x ~distance:1;
  let s = Format.asprintf "%a" Graph.pp (Graph.build b) in
  check_bool "cost shown" true (contains s "cost=1")

let test_config_pp () =
  check_string "machine pp" "machine(p=2, k=2)"
    (Format.asprintf "%a" Mimd_machine.Config.pp (machine ()))

let test_metrics_rejects () =
  Alcotest.check_raises "seq <= 0"
    (Invalid_argument "Metrics.percentage_parallelism: sequential <= 0") (fun () ->
      ignore (Metrics.percentage_parallelism ~sequential:0 ~parallel:1))

let test_schedule_busy_cycles () =
  let sched =
    Mimd_core.Cyclic_sched.schedule_iterations ~graph:(fig7 ()) ~machine:(machine ())
      ~iterations:10 ()
  in
  let total =
    Schedule.busy_cycles_on sched 0 + Schedule.busy_cycles_on sched 1
  in
  check_int "busy = total work" 50 total

let test_schedule_entries_on () =
  let sched =
    Mimd_core.Cyclic_sched.schedule_iterations ~graph:(fig7 ()) ~machine:(machine ())
      ~iterations:4 ()
  in
  let per_proc =
    List.length (Schedule.entries_on sched 0) + List.length (Schedule.entries_on sched 1)
  in
  check_int "split covers all" (Schedule.instance_count sched) per_proc

let test_violation_pp () =
  let g = fig7 () in
  let sched =
    Schedule.make ~graph:g ~machine:(machine ())
      Schedule.[ { inst = { node = 1; iter = 0 }; proc = 0; start = 0 } ]
  in
  match Schedule.violations sched with
  | v :: _ ->
    let s = Format.asprintf "%a" (Schedule.pp_violation ~names:(Graph.name g)) v in
    check_bool "names the instance" true (contains s "B_0")
  | [] -> Alcotest.fail "expected a violation"

let test_stats_errors () =
  Alcotest.check_raises "min empty" (Invalid_argument "Stats.minimum: empty") (fun () ->
      ignore (Mimd_util.Stats.minimum []));
  Alcotest.check_raises "percentile range"
    (Invalid_argument "Stats.percentile: p out of range") (fun () ->
      ignore (Mimd_util.Stats.percentile 150.0 [ 1.0 ]))

let test_dot_to_channel () =
  let path = Filename.temp_file "mimdloop" ".dot" in
  Out_channel.with_open_text path (fun oc -> Mimd_ddg.Dot.to_channel oc (fig7 ()));
  let content = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  check_bool "written" true (contains content "digraph")

let test_fluctuation_bursty_describe () =
  check_string "bursty describe" "bursty[2,6]/8"
    (Mimd_machine.Fluctuation.describe
       (Mimd_machine.Fluctuation.bursty ~base:2 ~mm:5 ~burst_len:8 ~seed:0))

let test_links_topo_describe () =
  let l =
    Mimd_sim.Links.topology_aware ~shape:Mimd_sim.Topology.Hypercube ~processors:8 ~base:2
      ~per_hop:1 ~mm:3 ~seed:0
  in
  check_bool "describe" true (contains (Mimd_sim.Links.describe l) "hypercube")

let test_program_pp () =
  let sched =
    Mimd_core.Cyclic_sched.schedule_iterations ~graph:(fig7 ()) ~machine:(machine ())
      ~iterations:2 ()
  in
  let prog = Mimd_codegen.From_schedule.run sched in
  let s = Format.asprintf "%a" Mimd_codegen.Program.pp prog in
  check_bool "parbegin" true (contains s "PARBEGIN" && contains s "PAREND");
  check_int "instruction count sane" (Mimd_codegen.Program.instruction_count prog)
    (Array.fold_left (fun acc l -> acc + List.length l) 0 (Mimd_codegen.Program.to_instrs prog))

let test_full_sched_fold_tolerance () =
  (* tolerance 0 forces a strict comparison; the call still succeeds. *)
  let full =
    Mimd_core.Full_sched.run ~fold_tolerance:0.0 ~graph:(Mimd_workloads.Cytron86.graph ())
      ~machine:(machine ()) ~iterations:10 ()
  in
  assert_valid full.Mimd_core.Full_sched.schedule;
  check_bool "rejects negative tolerance" true
    (match
       Mimd_core.Full_sched.run ~fold_tolerance:(-1.0) ~graph:(fig7 ())
         ~machine:(machine ()) ~iterations:5 ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_pattern_pp_rebased () =
  (* Patterns detected at a late window render from cycle 0. *)
  let g = Mimd_workloads.Elliptic.graph () in
  let cls = Mimd_core.Classify.run g in
  let core, _, _ = Mimd_core.Classify.cyclic_subgraph g cls in
  let r = Mimd_core.Cyclic_sched.solve ~graph:core ~machine:(machine ()) () in
  let s = Format.asprintf "%a" Mimd_core.Pattern.pp r.Mimd_core.Cyclic_sched.pattern in
  check_bool "starts at step 0" true (contains s "    0  ")

let suite =
  [
    Alcotest.test_case "graph: pp" `Quick test_graph_pp;
    Alcotest.test_case "graph: pp with cost" `Quick test_graph_pp_cost;
    Alcotest.test_case "config: pp" `Quick test_config_pp;
    Alcotest.test_case "metrics: rejects" `Quick test_metrics_rejects;
    Alcotest.test_case "schedule: busy cycles" `Quick test_schedule_busy_cycles;
    Alcotest.test_case "schedule: entries_on partition" `Quick test_schedule_entries_on;
    Alcotest.test_case "schedule: violation pp" `Quick test_violation_pp;
    Alcotest.test_case "stats: error messages" `Quick test_stats_errors;
    Alcotest.test_case "dot: to_channel" `Quick test_dot_to_channel;
    Alcotest.test_case "fluctuation: bursty describe" `Quick test_fluctuation_bursty_describe;
    Alcotest.test_case "links: topology describe" `Quick test_links_topo_describe;
    Alcotest.test_case "program: pp and counts" `Quick test_program_pp;
    Alcotest.test_case "full: fold tolerance" `Quick test_full_sched_fold_tolerance;
    Alcotest.test_case "pattern: pp rebased" `Quick test_pattern_pp_rebased;
  ]
