open Helpers
module Graph = Mimd_ddg.Graph
module Scc = Mimd_ddg.Scc
module Topo = Mimd_ddg.Topo
module Reach = Mimd_ddg.Reach
module Unwind = Mimd_ddg.Unwind
module Dot = Mimd_ddg.Dot

(* ---------------------------------------------------------------- *)
(* Graph construction                                                *)

let test_build_basic () =
  let g = fig7 () in
  check_int "nodes" 5 (Graph.node_count g);
  check_int "edges" 7 (Graph.edge_count g);
  check_int "total latency" 5 (Graph.total_latency g);
  check_int "max distance" 1 (Graph.max_distance g);
  check_bool "loop carried" true (Graph.has_loop_carried g)

let test_build_names () =
  let g = fig7 () in
  check_string "name" "A" (Graph.name g 0);
  check_bool "nodes in id order" true
    (List.map (fun (nd : Graph.node) -> nd.name) (Graph.nodes g) = [ "A"; "B"; "C"; "D"; "E" ])

let test_build_rejects_bad_latency () =
  let b = Graph.builder () in
  Alcotest.check_raises "latency" (Invalid_argument "Graph.add_node: latency < 1")
    (fun () -> ignore (Graph.add_node b ~latency:0 "x"))

let test_build_rejects_bad_edge () =
  let b = Graph.builder () in
  let _ = Graph.add_node b "x" in
  Alcotest.check_raises "unknown dst" (Invalid_argument "Graph.add_edge: unknown dst")
    (fun () -> Graph.add_edge b ~src:0 ~dst:3 ~distance:0);
  Alcotest.check_raises "negative distance"
    (Invalid_argument "Graph.add_edge: negative distance") (fun () ->
      Graph.add_edge b ~src:0 ~dst:0 ~distance:(-1))

let test_build_empty_rejected () =
  let b = Graph.builder () in
  Alcotest.check_raises "empty" (Invalid_argument "Graph.build: empty graph") (fun () ->
      ignore (Graph.build b))

let test_duplicate_edges_collapse () =
  let g = graph_of ~latencies:[| 1; 1 |] ~edges:[ (0, 1, 0); (0, 1, 0); (0, 1, 1) ] in
  check_int "two distinct edges" 2 (Graph.edge_count g)

let test_succs_preds () =
  let g = fig7 () in
  let succ_a = List.map (fun (e : Graph.edge) -> (e.dst, e.distance)) (Graph.succs g 0) in
  check_bool "A succs" true (succ_a = [ (0, 1); (1, 0) ]);
  let pred_a = List.map (fun (e : Graph.edge) -> (e.src, e.distance)) (Graph.preds g 0) in
  check_bool "A preds" true (pred_a = [ (0, 1); (4, 1) ])

let test_edge_cost_clamped () =
  let b = Graph.builder () in
  let x = Graph.add_node b "x" in
  let y = Graph.add_node b "y" in
  Graph.add_edge b ~cost:9 ~src:x ~dst:y ~distance:0;
  let g = Graph.build b in
  let machine = Mimd_machine.Config.make ~processors:2 ~comm_estimate:3 in
  let e = List.hd (Graph.edges g) in
  check_int "clamped to k" 3 (Mimd_machine.Config.edge_cost machine e)

let test_subgraph () =
  let g = fig7 () in
  let sub, old_of_new, new_of_old = Graph.subgraph g ~keep:(fun v -> v <> 2) in
  check_int "nodes" 4 (Graph.node_count sub);
  check_bool "C dropped" true (new_of_old.(2) = -1);
  check_string "mapping" "D" (Graph.name sub new_of_old.(3));
  check_int "old of new roundtrip" 3 old_of_new.(new_of_old.(3));
  (* Edges through C vanish. *)
  check_int "edges" 5 (Graph.edge_count sub)

let test_connectivity () =
  let g = fig7 () in
  check_bool "fig7 connected" true (Graph.is_connected g);
  let g2 = graph_of ~latencies:[| 1; 1; 1; 1 |] ~edges:[ (0, 1, 0); (2, 3, 1) ] in
  check_bool "two components" true (List.length (Graph.connected_components g2) = 2)

let test_equal_structure () =
  check_bool "fig7 = fig7" true (Graph.equal_structure (fig7 ()) (fig7 ()));
  check_bool "fig7 <> two_cycle" false (Graph.equal_structure (fig7 ()) (two_cycle ()))

(* ---------------------------------------------------------------- *)
(* SCC                                                               *)

let test_scc_fig7 () =
  (* The loop-carried edges close one big cycle A->B->C=>D->E=>A, so
     the whole of Figure 7 is a single strongly connected component. *)
  let g = fig7 () in
  let r = Scc.run g in
  check_int "one component" 1 (Array.length r.Scc.components);
  check_bool "nontrivial" true (Scc.in_nontrivial r 1)

let test_scc_two_cycle () =
  let g = two_cycle () in
  let r = Scc.run g in
  check_int "one component" 1 (Array.length r.Scc.components);
  check_bool "nontrivial" true (Scc.in_nontrivial r 0)

let test_scc_self_loop () =
  let g = self_loop () in
  let r = Scc.run g in
  check_bool "self loop nontrivial" true (Scc.in_nontrivial r 0)

let test_scc_dag () =
  let g = graph_of ~latencies:[| 1; 1; 1 |] ~edges:[ (0, 1, 0); (1, 2, 0) ] in
  let r = Scc.run g in
  check_int "three components" 3 (Array.length r.Scc.components);
  check_bool "all trivial" true (Array.for_all not r.Scc.nontrivial)

let test_scc_condensation_order () =
  let g = graph_of ~latencies:[| 1; 1; 1 |] ~edges:[ (0, 1, 0); (1, 2, 0) ] in
  let r = Scc.run g in
  let order = Scc.condensation_topo_order r in
  (* Sources first: component of node 0 precedes component of node 2. *)
  let pos c = Option.get (List.find_index (Int.equal c) order) in
  check_bool "0 before 2" true (pos r.Scc.component.(0) < pos r.Scc.component.(2))

let brute_force_same_scc g u v =
  Reach.reaches g ~src:u ~dst:v && Reach.reaches g ~src:v ~dst:u

let prop_scc_matches_reachability =
  qtest "scc agrees with mutual reachability" gen_any_graph print_graph_spec (fun spec ->
      let g = build_cyclic spec in
      let r = Scc.run g in
      let n = Graph.node_count g in
      let ok = ref true in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          let same = r.Scc.component.(u) = r.Scc.component.(v) in
          if same <> brute_force_same_scc g u v then ok := false
        done
      done;
      !ok)

(* ---------------------------------------------------------------- *)
(* Topo                                                              *)

let test_topo_fig7 () =
  let order = Topo.sort_zero (fig7 ()) in
  check_int "length" 5 (List.length order);
  let pos v = Option.get (List.find_index (Int.equal v) order) in
  check_bool "A before B" true (pos 0 < pos 1);
  check_bool "B before C" true (pos 1 < pos 2);
  check_bool "D before E" true (pos 3 < pos 4)

let test_topo_ties_by_id () =
  let g = graph_of ~latencies:[| 1; 1; 1 |] ~edges:[ (2, 2, 1) ] in
  check_bool "ascending ids" true (Topo.sort_zero g = [ 0; 1; 2 ])

let test_topo_cycle_raises () =
  let g = graph_of ~latencies:[| 1; 1 |] ~edges:[ (0, 1, 0); (1, 0, 0) ] in
  check_bool "raises Cycle" true
    (match Topo.sort_zero g with _ -> false | exception Topo.Cycle c -> c <> []);
  check_bool "is_zero_acyclic false" false (Topo.is_zero_acyclic g)

let test_topo_sort_all () =
  let g = graph_of ~latencies:[| 1; 1 |] ~edges:[ (1, 0, 1) ] in
  check_bool "1 before 0 (all edges)" true (Topo.sort_all g = [ 1; 0 ]);
  check_bool "fig7 has all-edge cycles" true
    (match Topo.sort_all (fig7 ()) with _ -> false | exception Topo.Cycle _ -> true)

let test_zero_levels () =
  let g = graph_of ~latencies:[| 2; 3; 1 |] ~edges:[ (0, 1, 0); (1, 2, 0) ] in
  let levels = Topo.zero_levels g in
  check_bool "asap levels" true (levels = [| 0; 2; 5 |])

let prop_topo_respects_edges =
  qtest "sort_zero is a valid topological order" gen_any_graph print_graph_spec (fun spec ->
      let g = build_cyclic spec in
      let order = Topo.sort_zero g in
      let pos = Array.make (Graph.node_count g) 0 in
      List.iteri (fun i v -> pos.(v) <- i) order;
      List.length order = Graph.node_count g
      && List.for_all
           (fun (e : Graph.edge) -> e.distance > 0 || pos.(e.src) < pos.(e.dst))
           (Graph.edges g))

(* ---------------------------------------------------------------- *)
(* Reach                                                             *)

let test_reaches () =
  let g = fig7 () in
  check_bool "A reaches E" true (Reach.reaches g ~src:0 ~dst:4);
  check_bool "E reaches A (lcd)" true (Reach.reaches g ~src:4 ~dst:0);
  check_bool "reflexive" true (Reach.reaches g ~src:2 ~dst:2)

let test_ancestors () =
  let g = graph_of ~latencies:[| 1; 1; 1 |] ~edges:[ (0, 1, 0); (1, 2, 0) ] in
  let anc = Reach.ancestors g 2 in
  check_bool "all ancestors" true (anc = [| true; true; true |]);
  let anc0 = Reach.ancestors g 0 in
  check_bool "only self" true (anc0 = [| true; false; false |])

let test_critical_path () =
  let g = graph_of ~latencies:[| 2; 3; 1 |] ~edges:[ (0, 1, 0); (1, 2, 0) ] in
  check_int "critical path" 6 (Reach.critical_path_zero g);
  check_int "fig7 critical path" 3 (Reach.critical_path_zero (fig7 ()))

let test_recurrence_bound_simple () =
  (* Single self-loop of latency 4: bound = 4 cycles/iteration. *)
  let g = self_loop ~latency:4 () in
  Alcotest.(check (float 0.01)) "self loop" 4.0 (Reach.recurrence_bound g)

let test_recurrence_bound_fig7 () =
  (* Cycles: A self (1/1), D self (1/1), and the long cycle
     A->B->C=>D->E=>A with total latency 5 over total distance 2. *)
  Alcotest.(check (float 0.01)) "fig7 bound" 2.5 (Reach.recurrence_bound (fig7 ()))

let test_recurrence_bound_acyclic () =
  let g = graph_of ~latencies:[| 1; 1 |] ~edges:[ (0, 1, 0) ] in
  Alcotest.(check (float 0.001)) "acyclic" 0.0 (Reach.recurrence_bound g)

let prop_rate_respects_recurrence_bound =
  qtest ~count:40 "pattern rate >= recurrence bound" gen_cyclic_graph print_graph_spec
    (fun spec ->
      let g = build_cyclic spec in
      let machine = machine ~p:3 ~k:1 () in
      let r = Mimd_core.Cyclic_sched.solve ~graph:g ~machine () in
      Mimd_core.Pattern.rate r.Mimd_core.Cyclic_sched.pattern
      >= Reach.recurrence_bound g -. 0.01)

(* ---------------------------------------------------------------- *)
(* Unwind                                                            *)

let test_unroll_counts () =
  let g = fig7 () in
  let m = Unwind.unroll g ~times:3 in
  check_int "nodes" 15 (Graph.node_count m.Unwind.graph);
  check_int "edges" 21 (Graph.edge_count m.Unwind.graph);
  check_int "copies" 3 (Unwind.iterations_per_new_iteration m)

let test_unroll_identity () =
  let g = fig7 () in
  let m = Unwind.unroll g ~times:1 in
  check_bool "same structure" true (Graph.equal_structure g m.Unwind.graph)

let test_normalize_reduces_distance () =
  let g = graph_of ~latencies:[| 1; 1 |] ~edges:[ (0, 1, 0); (1, 0, 3) ] in
  let m = Unwind.normalize g in
  check_int "copies = max distance" 3 m.Unwind.copies;
  check_bool "distances <= 1" true (Graph.max_distance m.Unwind.graph <= 1)

let test_normalize_noop () =
  let g = fig7 () in
  let m = Unwind.normalize g in
  check_int "no unroll needed" 1 m.Unwind.copies

let test_unroll_mapping_roundtrip () =
  let g = fig7 () in
  let m = Unwind.unroll g ~times:2 in
  Array.iteri
    (fun new_id (orig, copy) ->
      check_int "roundtrip" new_id m.Unwind.new_of_orig.(orig).(copy))
    m.Unwind.orig_of_new

let test_unroll_rejects () =
  Alcotest.check_raises "times<1" (Invalid_argument "Unwind.unroll: times < 1") (fun () ->
      ignore (Unwind.unroll (fig7 ()) ~times:0))

let prop_normalize_distance_invariant =
  qtest "normalize leaves distances in {0,1}" gen_any_graph print_graph_spec (fun spec ->
      let g = build_cyclic spec in
      let m = Unwind.normalize g in
      Graph.max_distance m.Unwind.graph <= 1
      && Graph.node_count m.Unwind.graph = Graph.node_count g * m.Unwind.copies
      && Graph.total_latency m.Unwind.graph = Graph.total_latency g * m.Unwind.copies)

let prop_unroll_preserves_zero_acyclicity =
  qtest "unroll keeps the distance-0 subgraph acyclic" gen_any_graph print_graph_spec
    (fun spec ->
      let g = build_cyclic spec in
      let m = Unwind.unroll g ~times:3 in
      Topo.is_zero_acyclic m.Unwind.graph)

(* ---------------------------------------------------------------- *)
(* Dot                                                               *)

let test_dot_output () =
  let s = Dot.to_string (fig7 ()) in
  check_bool "digraph" true (String.length s > 20 && String.sub s 0 7 = "digraph");
  check_bool "dashed lcd" true
    (String.split_on_char '\n' s
    |> List.exists (fun l ->
           let has_sub sub =
             let n = String.length sub and m = String.length l in
             let rec go i = i + n <= m && (String.sub l i n = sub || go (i + 1)) in
             go 0
           in
           has_sub "style=dashed"))

let test_dot_highlight () =
  let s = Dot.to_string ~highlight:(fun v -> if v = 0 then Some "red" else None) (fig7 ()) in
  check_bool "fillcolor" true
    (String.split_on_char '\n' s
    |> List.exists (fun l ->
           let has_sub sub =
             let n = String.length sub and m = String.length l in
             let rec go i = i + n <= m && (String.sub l i n = sub || go (i + 1)) in
             go 0
           in
           has_sub "fillcolor=\"red\""))

let suite =
  [
    Alcotest.test_case "graph: build basics" `Quick test_build_basic;
    Alcotest.test_case "graph: names" `Quick test_build_names;
    Alcotest.test_case "graph: rejects bad latency" `Quick test_build_rejects_bad_latency;
    Alcotest.test_case "graph: rejects bad edges" `Quick test_build_rejects_bad_edge;
    Alcotest.test_case "graph: rejects empty" `Quick test_build_empty_rejected;
    Alcotest.test_case "graph: duplicate edges collapse" `Quick test_duplicate_edges_collapse;
    Alcotest.test_case "graph: succs/preds sorted" `Quick test_succs_preds;
    Alcotest.test_case "graph: edge cost clamped to k" `Quick test_edge_cost_clamped;
    Alcotest.test_case "graph: subgraph" `Quick test_subgraph;
    Alcotest.test_case "graph: connectivity" `Quick test_connectivity;
    Alcotest.test_case "graph: structural equality" `Quick test_equal_structure;
    Alcotest.test_case "scc: fig7 self loops" `Quick test_scc_fig7;
    Alcotest.test_case "scc: two-node cycle" `Quick test_scc_two_cycle;
    Alcotest.test_case "scc: distance-1 self loop is a cycle" `Quick test_scc_self_loop;
    Alcotest.test_case "scc: dag" `Quick test_scc_dag;
    Alcotest.test_case "scc: condensation order" `Quick test_scc_condensation_order;
    prop_scc_matches_reachability;
    Alcotest.test_case "topo: fig7 order" `Quick test_topo_fig7;
    Alcotest.test_case "topo: ties by id" `Quick test_topo_ties_by_id;
    Alcotest.test_case "topo: cycle raises" `Quick test_topo_cycle_raises;
    Alcotest.test_case "topo: sort_all" `Quick test_topo_sort_all;
    Alcotest.test_case "topo: asap levels" `Quick test_zero_levels;
    prop_topo_respects_edges;
    Alcotest.test_case "reach: reachability" `Quick test_reaches;
    Alcotest.test_case "reach: ancestors" `Quick test_ancestors;
    Alcotest.test_case "reach: critical path" `Quick test_critical_path;
    Alcotest.test_case "reach: recurrence bound (self loop)" `Quick test_recurrence_bound_simple;
    Alcotest.test_case "reach: recurrence bound (fig7)" `Quick test_recurrence_bound_fig7;
    Alcotest.test_case "reach: recurrence bound (acyclic)" `Quick test_recurrence_bound_acyclic;
    prop_rate_respects_recurrence_bound;
    Alcotest.test_case "unwind: unroll counts" `Quick test_unroll_counts;
    Alcotest.test_case "unwind: unroll identity" `Quick test_unroll_identity;
    Alcotest.test_case "unwind: normalize reduces distances" `Quick test_normalize_reduces_distance;
    Alcotest.test_case "unwind: normalize noop" `Quick test_normalize_noop;
    Alcotest.test_case "unwind: mapping roundtrip" `Quick test_unroll_mapping_roundtrip;
    Alcotest.test_case "unwind: rejects times<1" `Quick test_unroll_rejects;
    prop_normalize_distance_invariant;
    prop_unroll_preserves_zero_acyclicity;
    Alcotest.test_case "dot: output shape" `Quick test_dot_output;
    Alcotest.test_case "dot: highlight" `Quick test_dot_highlight;
  ]
