open Helpers
module Op_graph = Mimd_loop_ir.Op_graph
module Depend = Mimd_loop_ir.Depend
module Graph = Mimd_ddg.Graph
module Topo = Mimd_ddg.Topo

let test_lower_counts () =
  (* Y[i] = Y[i-1] + A[i-1]*X[i-1] + B[i-1]*X[i-1] + C[i-1]:
     3 adds + 2 muls = 5 operation nodes from 1 statement. *)
  let l =
    Op_graph.run_string
      "for i = 1 to n { Y[i] = Y[i-1] + A[i-1] * X[i-1] + B[i-1] * X[i-1] + C[i-1]; }"
  in
  check_int "five op nodes" 5 (Graph.node_count l.Op_graph.graph);
  check_int "all owned by stmt 0" 5 (Op_graph.node_count_of_stmt l 0)

let test_lower_copy_statement () =
  let l = Op_graph.run_string "for i = 1 to n { A[i] = A[i-1] + 1; B[i] = A[i]; }" in
  check_int "add + copy" 2 (Graph.node_count l.Op_graph.graph);
  check_bool "copy kind" true (Graph.kind l.Op_graph.graph l.Op_graph.root_of_stmt.(1) = Graph.Copy)

let test_lower_latencies () =
  let l = Op_graph.run_string "for i = 1 to n { X[i] = A[i-1] * X[i-1] + B[i-1]; }" in
  let kinds =
    List.sort compare (List.map (fun (n : Graph.node) -> (n.kind, n.latency)) (Graph.nodes l.Op_graph.graph))
  in
  check_bool "mul lat 2, add lat 1" true (kinds = [ (Graph.Add, 1); (Graph.Mul, 2) ])

let test_lower_intra_statement_edges () =
  (* The add consumes the mul: a distance-0 edge inside the statement. *)
  let l = Op_graph.run_string "for i = 1 to n { X[i] = A[i-1] * X[i-1] + B[i-1]; }" in
  let g = l.Op_graph.graph in
  check_bool "mul feeds add" true
    (List.exists
       (fun (e : Graph.edge) ->
         e.distance = 0 && Graph.kind g e.src = Graph.Mul && Graph.kind g e.dst = Graph.Add)
       (Graph.edges g))

let test_lower_cross_statement_flow () =
  (* B[i] = A[i] + 1 reads statement 0's root at distance 0. *)
  let l = Op_graph.run_string "for i = 1 to n { A[i] = A[i-1] + 1; B[i] = A[i] + 1; }" in
  let g = l.Op_graph.graph in
  let r0 = l.Op_graph.root_of_stmt.(0) and r1 = l.Op_graph.root_of_stmt.(1) in
  check_bool "flow to the consuming op" true
    (List.exists (fun (e : Graph.edge) -> e.src = r0 && e.dst = r1 && e.distance = 0) (Graph.edges g))

let test_lower_recurrence_to_reader () =
  (* The recurrence edge lands on the operation that actually reads
     X[i-1], not on the whole statement. *)
  let l = Op_graph.run_string "for i = 1 to n { X[i] = A[i-1] * X[i-1] + B[i-1]; }" in
  let g = l.Op_graph.graph in
  let root = l.Op_graph.root_of_stmt.(0) in
  let mul =
    List.find (fun (n : Graph.node) -> n.kind = Graph.Mul) (Graph.nodes g)
  in
  check_bool "root -> mul at distance 1" true
    (List.exists
       (fun (e : Graph.edge) -> e.src = root && e.dst = mul.id && e.distance = 1)
       (Graph.edges g))

let test_lower_zero_acyclic () =
  List.iter
    (fun src ->
      let l = Op_graph.run_string src in
      check_bool "zero-acyclic" true (Topo.is_zero_acyclic l.Op_graph.graph))
    [
      Mimd_workloads.Fig7.source;
      "for i = 1 to n { S[0] = S[0] + X[i] * Y[i]; }";
      "for i = 1 to n { if (A[i-1]) { B[i] = B[i-1] * 2; } else { B[i] = 1; } C[i] = B[i]; }";
    ]

let test_lower_never_slower_than_statements () =
  (* Op-level graphs schedule at least as fast per iteration. *)
  List.iter
    (fun src ->
      let machine = machine () in
      let rate graph =
        let g = (Mimd_ddg.Unwind.normalize graph).Mimd_ddg.Unwind.graph in
        Mimd_core.Schedule.makespan
          (Mimd_core.Cyclic_sched.schedule_iterations ~graph:g ~machine ~iterations:60 ())
      in
      let stmt = (Depend.analyze_string src).Depend.graph in
      let ops = (Op_graph.run_string src).Op_graph.graph in
      check_bool "ops <= statements" true (rate ops <= rate stmt))
    [
      "for i = 1 to n { Y[i] = Y[i-1] + A[i-1] * X[i-1] + B[i-1] * X[i-1] + C[i-1]; }";
      "for i = 1 to n { P[i] = (P[i-1] * P[i-1] + Q[i-1]) * R[i-1]; Q[i] = P[i] + Q[i-1] * R[i-1]; }";
    ]

let test_lower_select () =
  let l = Op_graph.run_string "for i = 1 to n { if (A[i-1]) { A[i] = A[i-1] + 1; } }" in
  let g = l.Op_graph.graph in
  let kinds = List.map (fun (n : Graph.node) -> n.kind) (Graph.nodes g) in
  check_bool "has select nodes" true (List.mem Graph.Compare kinds);
  (* The predicate statement's root is the booleanising select. *)
  check_bool "predicate root is a select" true
    (Graph.kind g l.Op_graph.root_of_stmt.(0) = Graph.Compare)

let test_lower_reduction () =
  let l = Op_graph.run_string "for i = 1 to n { S[0] = S[0] + X[i]; }" in
  let g = l.Op_graph.graph in
  let root = l.Op_graph.root_of_stmt.(0) in
  check_bool "self recurrence" true
    (List.exists
       (fun (e : Graph.edge) -> e.src = root && e.dst = root && e.distance = 1)
       (Graph.edges g))

let test_lower_classifies_like_statements () =
  (* Cyclic-ness per statement is preserved: a statement is Cyclic at
     statement level iff some of its ops are Cyclic at op level. *)
  let src = "for i = 1 to n { A[i] = A[i-1] + 1; B[i] = A[i] * C[i]; D[i] = B[i] + 1; }" in
  let stmt = Depend.analyze_string src in
  let ops = Op_graph.run_string src in
  let stmt_cls = Mimd_core.Classify.run stmt.Depend.graph in
  let op_cls = Mimd_core.Classify.run ops.Op_graph.graph in
  Array.iteri
    (fun s root ->
      let stmt_cyclic = stmt_cls.Mimd_core.Classify.membership.(s) = Mimd_core.Classify.Cyclic in
      let op_cyclic = op_cls.Mimd_core.Classify.membership.(root) = Mimd_core.Classify.Cyclic in
      check_bool "root membership matches" true (stmt_cyclic = op_cyclic))
    ops.Op_graph.root_of_stmt

let suite =
  [
    Alcotest.test_case "lower: op counts" `Quick test_lower_counts;
    Alcotest.test_case "lower: copy statements" `Quick test_lower_copy_statement;
    Alcotest.test_case "lower: per-op latencies" `Quick test_lower_latencies;
    Alcotest.test_case "lower: intra-statement dataflow" `Quick test_lower_intra_statement_edges;
    Alcotest.test_case "lower: cross-statement flow" `Quick test_lower_cross_statement_flow;
    Alcotest.test_case "lower: recurrence lands on reader" `Quick test_lower_recurrence_to_reader;
    Alcotest.test_case "lower: zero-acyclic" `Quick test_lower_zero_acyclic;
    Alcotest.test_case "lower: never slower than statements" `Quick test_lower_never_slower_than_statements;
    Alcotest.test_case "lower: select and predicates" `Quick test_lower_select;
    Alcotest.test_case "lower: reductions" `Quick test_lower_reduction;
    Alcotest.test_case "lower: classification consistent" `Quick test_lower_classifies_like_statements;
  ]
