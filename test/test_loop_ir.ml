open Helpers
module Ast = Mimd_loop_ir.Ast
module Lexer = Mimd_loop_ir.Lexer
module Parser = Mimd_loop_ir.Parser
module If_convert = Mimd_loop_ir.If_convert
module Cost = Mimd_loop_ir.Cost
module Depend = Mimd_loop_ir.Depend
module Graph = Mimd_ddg.Graph

(* ---------------------------------------------------------------- *)
(* Lexer                                                             *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "for i = 1 to n { A[i] = 2 * B[i-1]; }" in
  check_int "token count" 23 (List.length toks);
  check_bool "starts with for" true (List.hd toks = Lexer.FOR);
  check_bool "ends with eof" true (List.nth toks 22 = Lexer.EOF)

let test_lexer_comments () =
  let toks = Lexer.tokenize "# a comment\nfor # mid\n" in
  check_bool "comment skipped" true (toks = [ Lexer.FOR; Lexer.EOF ])

let test_lexer_error () =
  check_bool "bad char" true
    (match Lexer.tokenize "for ?" with _ -> false | exception Lexer.Error _ -> true)

(* ---------------------------------------------------------------- *)
(* Parser                                                            *)

let test_parse_fig7 () =
  let loop = Parser.parse Mimd_workloads.Fig7.source in
  check_string "index" "i" loop.Ast.index;
  check_string "lo" "1" loop.Ast.lo;
  check_string "hi" "n" loop.Ast.hi;
  check_int "five statements" 5 (List.length loop.Ast.body);
  check_bool "flat" true (Ast.is_flat loop)

let test_parse_offsets () =
  let loop = Parser.parse "for i = 1 to n { X[i+2] = X[i-3] + 1; }" in
  match loop.Ast.body with
  | [ Ast.Assign { array = "X"; offset = 2; rhs = Ast.Binop (Ast.Add, Ast.Ref r, Ast.Int 1) } ]
    ->
    check_int "read offset" (-3) r.offset
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_precedence () =
  let loop = Parser.parse "for i = 1 to n { X[i] = A[i] + B[i] * C[i]; }" in
  match loop.Ast.body with
  | [ Ast.Assign { rhs = Ast.Binop (Ast.Add, Ast.Ref _, Ast.Binop (Ast.Mul, _, _)); _ } ] -> ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parse_parens_and_neg () =
  let loop = Parser.parse "for i = 1 to n { X[i] = -(A[i] + B[i]) / 2; }" in
  match loop.Ast.body with
  | [ Ast.Assign { rhs = Ast.Binop (Ast.Div, Ast.Neg _, Ast.Int 2); _ } ] -> ()
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_if_else () =
  let loop =
    Parser.parse "for i = 1 to n { if (A[i-1]) { B[i] = 1; } else { B[i] = 2; C[i] = 3; } }"
  in
  match loop.Ast.body with
  | [ Ast.If { then_; else_; _ } ] ->
    check_int "then" 1 (List.length then_);
    check_int "else" 2 (List.length else_)
  | _ -> Alcotest.fail "expected if"

let test_parse_fixed_cell () =
  let loop = Parser.parse "for i = 1 to n { S[0] = S[0] + X[i]; }" in
  match loop.Ast.body with
  | [ Ast.Assign { array; _ } ] -> check_string "synthetic name" "S@0" array
  | _ -> Alcotest.fail "unexpected shape"

let test_parse_scalar () =
  let loop = Parser.parse "for i = 1 to n { X[i] = q * X[i-1]; }" in
  match loop.Ast.body with
  | [ Ast.Assign { rhs = Ast.Binop (Ast.Mul, Ast.Scalar "q", _); _ } ] -> ()
  | _ -> Alcotest.fail "expected scalar"

let test_parse_errors () =
  let bad src =
    match Parser.parse src with
    | _ -> false
    | exception Parser.Error _ -> true
  in
  check_bool "missing semi" true (bad "for i = 1 to n { X[i] = 1 }");
  check_bool "wrong index var" true (bad "for i = 1 to n { X[j] = 1; }");
  check_bool "garbage after" true (bad "for i = 1 to n { X[i] = 1; } extra");
  check_bool "no body" true (bad "for i = 1 to n")

let test_pp_roundtrip () =
  let src = "for i = 1 to n { A[i] = A[i-1] * E[i-1]; B[i] = A[i]; }" in
  let loop = Parser.parse src in
  let printed = Format.asprintf "%a" Ast.pp_loop loop in
  let reparsed = Parser.parse printed in
  check_bool "roundtrip" true (Ast.assignments loop = Ast.assignments reparsed)

(* ---------------------------------------------------------------- *)
(* If-conversion                                                     *)

let test_if_convert_flattens () =
  let loop = Parser.parse "for i = 1 to n { if (A[i-1]) { B[i] = A[i-1] + 1; } }" in
  let flat = If_convert.run loop in
  check_bool "flat" true (Ast.is_flat flat);
  check_int "predicate + guarded stmt" 2 (List.length flat.Ast.body)

let test_if_convert_guard_reads_predicate () =
  let loop = Parser.parse "for i = 1 to n { if (A[i-1]) { B[i] = 1; } }" in
  let flat = If_convert.run loop in
  match Ast.assignments flat with
  | [ (p, _, _); (_, _, Ast.Select (Ast.Ref r, _, keep)) ] ->
    check_string "guard is the predicate" p r.array;
    (match keep with
    | Ast.Ref { array = "B"; offset = 0 } -> ()
    | _ -> Alcotest.fail "keep value should be B[i]")
  | _ -> Alcotest.fail "unexpected if-converted shape"

let test_if_convert_else_negates () =
  let loop = Parser.parse "for i = 1 to n { if (A[i-1]) { B[i] = 1; } else { C[i] = 2; } }" in
  let flat = If_convert.run loop in
  check_int "p, then, not-p, else" 4 (List.length flat.Ast.body)

let test_if_convert_nested () =
  let loop =
    Parser.parse
      "for i = 1 to n { if (A[i-1]) { if (B[i-1]) { C[i] = 1; } } }"
  in
  let flat = If_convert.run loop in
  check_bool "flat" true (Ast.is_flat flat);
  (* Innermost assignment guarded by both predicates. *)
  match List.rev (Ast.assignments flat) with
  | (_, _, Ast.Select (Ast.Binop (Ast.Mul, _, _), _, _)) :: _ -> ()
  | _ -> Alcotest.fail "expected conjoined guard"

let test_if_convert_idempotent () =
  let loop = Parser.parse Mimd_workloads.Fig7.source in
  let once = If_convert.run loop in
  check_bool "no change on flat loops" true (Ast.assignments once = Ast.assignments loop)

(* ---------------------------------------------------------------- *)
(* Cost model                                                        *)

let test_cost_uniform () =
  let e = Ast.Binop (Ast.Mul, Ast.Int 1, Ast.Binop (Ast.Div, Ast.Int 2, Ast.Int 3)) in
  check_int "uniform = 1" 1 (Cost.expr_latency Cost.uniform e)

let test_cost_weighted () =
  let e = Ast.Binop (Ast.Mul, Ast.Int 1, Ast.Binop (Ast.Add, Ast.Int 2, Ast.Int 3)) in
  check_int "mul+add = 3" 3 (Cost.expr_latency Cost.weighted e);
  check_int "copy floor" 1 (Cost.expr_latency Cost.weighted (Ast.Int 5))

let test_kind_of_rhs () =
  check_bool "mul" true (Cost.kind_of_rhs (Ast.Binop (Ast.Mul, Ast.Int 1, Ast.Int 2)) = Graph.Mul);
  check_bool "copy" true (Cost.kind_of_rhs (Ast.Ref { array = "X"; offset = 0 }) = Graph.Copy)

(* ---------------------------------------------------------------- *)
(* Dependence analysis                                               *)

let edges_of g =
  List.map (fun (e : Graph.edge) -> (e.src, e.dst, e.distance)) (Graph.edges g)
  |> List.sort compare

let test_depend_fig7_edges () =
  let a = Depend.analyze_string ~cost:Cost.uniform Mimd_workloads.Fig7.source in
  check_bool "same edges as the hand-built graph" true
    (edges_of a.Depend.graph = edges_of (Mimd_workloads.Fig7.graph ()))

let test_depend_flow_same_iteration () =
  let a = Depend.analyze_string "for i = 1 to n { A[i] = 1; B[i] = A[i]; }" in
  check_bool "flow dist 0" true (edges_of a.Depend.graph = [ (0, 1, 0) ]);
  check_int "one flow dep" 1 (Depend.count a Depend.Flow)

let test_depend_flow_across () =
  let a = Depend.analyze_string "for i = 1 to n { A[i] = A[i-2] + 1; }" in
  check_bool "distance 2 self" true (edges_of a.Depend.graph = [ (0, 0, 2) ])

let test_depend_anti () =
  (* B reads A[i+1] which statement A overwrites next iteration. *)
  let a = Depend.analyze_string "for i = 1 to n { B[i] = A[i+1]; A[i] = 2; }" in
  check_int "anti dep" 1 (Depend.count a Depend.Anti);
  check_bool "anti edge 0 -> 1 dist 1" true (List.mem (0, 1, 1) (edges_of a.Depend.graph))

let test_depend_anti_same_iteration () =
  let a = Depend.analyze_string "for i = 1 to n { B[i] = A[i]; A[i] = 2; }" in
  check_bool "anti dist 0" true (List.mem (0, 1, 0) (edges_of a.Depend.graph))

let test_depend_output () =
  let a = Depend.analyze_string "for i = 1 to n { A[i] = 1; A[i-1] = 2; }" in
  check_int "output dep" 1 (Depend.count a Depend.Output);
  (* s0 writes A[i], s1 writes A[i-1]: element A[i] is written by s0
     at iteration i and rewritten by s1 at iteration i+1. *)
  check_bool "output 0 -> 1 dist 1" true (List.mem (0, 1, 1) (edges_of a.Depend.graph))

let test_depend_reduction_cell () =
  let a = Depend.analyze_string "for i = 1 to n { S[0] = S[0] + X[i]; }" in
  (* Self flow at distance 1: a true reduction recurrence. *)
  check_bool "self recurrence" true (List.mem (0, 0, 1) (edges_of a.Depend.graph));
  let cls = Mimd_core.Classify.run a.Depend.graph in
  check_bool "reduction is cyclic" true (cls.Mimd_core.Classify.membership.(0) = Mimd_core.Classify.Cyclic)

let test_depend_fixed_cell_flow () =
  let a = Depend.analyze_string "for i = 1 to n { T[0] = X[i-1]; Y[i] = T[0]; }" in
  (* Writer before reader: flow dist 0; reader also sees last
     iteration's value: the dedup keeps one edge per (src,dst,dist). *)
  check_bool "flow 0" true (List.mem (0, 1, 0) (edges_of a.Depend.graph))

let test_depend_latencies () =
  let a = Depend.analyze_string "for i = 1 to n { A[i] = B[i-1] * C[i-1] + 1; }" in
  check_int "mul+add weighted" 3 (Graph.latency a.Depend.graph 0)

let test_depend_predicate_kind () =
  let a = Depend.analyze_string "for i = 1 to n { if (A[i-1]) { A[i] = 1; } }" in
  let kinds = List.map (fun (n : Graph.node) -> n.kind) (Graph.nodes a.Depend.graph) in
  check_bool "has predicate node" true (List.mem Graph.Predicate kinds)

let test_depend_zero_acyclic () =
  (* Whatever the input, intra-iteration dependences must be acyclic —
     otherwise the loop body itself would be unexecutable. *)
  List.iter
    (fun src ->
      let a = Depend.analyze_string src in
      check_bool "zero-acyclic" true (Mimd_ddg.Topo.is_zero_acyclic a.Depend.graph))
    [
      Mimd_workloads.Fig7.source;
      "for i = 1 to n { S[0] = S[0] + X[i]; Y[i] = S[0]; }";
      "for i = 1 to n { if (A[i-1]) { B[i] = B[i-1]; } else { B[i] = 0; } C[i] = B[i]; }";
    ]

let test_depend_schedules_end_to_end () =
  (* The analysed fig7 graph behaves exactly like the hand-built one:
     3 cycles/iteration. *)
  let a = Depend.analyze_string ~cost:Cost.uniform Mimd_workloads.Fig7.source in
  let r = Mimd_core.Cyclic_sched.solve ~graph:a.Depend.graph ~machine:(machine ()) () in
  Alcotest.(check (float 0.001)) "rate 3" 3.0 (Mimd_core.Pattern.rate r.Mimd_core.Cyclic_sched.pattern)

let test_depend_empty_rejected () =
  check_bool "empty body" true
    (match Depend.analyze_string "for i = 1 to n { }" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* The one front end: every failure is a message, and the analysis
   carries the if-converted loop. *)
let test_of_source () =
  (match Depend.of_source "for i = 1 to n { if (A[i-1]) { A[i] = 1; } }" with
  | Ok a ->
    check_bool "analysed loop is flat" true (Ast.is_flat a.Depend.loop);
    check_int "one node per flat assignment"
      (List.length (Ast.assignments a.Depend.loop))
      (Mimd_ddg.Graph.node_count a.Depend.graph)
  | Error e -> Alcotest.fail e);
  let error src =
    match Depend.of_source src with Ok _ -> Alcotest.failf "accepted %S" src | Error e -> e
  in
  check_string "empty body" "parse error: empty loop body" (error "for i = 1 to n { }");
  check_bool "lex error with its position" true
    (String.starts_with ~prefix:"lex error at 24:" (error "for i = 1 to n { A[i] = $; }"));
  check_bool "parse error" true
    (String.starts_with ~prefix:"parse error: " (error "for i = 1 to n { A[i] = ; }"))

let suite =
  [
    Alcotest.test_case "lexer: tokens" `Quick test_lexer_tokens;
    Alcotest.test_case "lexer: comments" `Quick test_lexer_comments;
    Alcotest.test_case "lexer: error position" `Quick test_lexer_error;
    Alcotest.test_case "parser: fig7" `Quick test_parse_fig7;
    Alcotest.test_case "parser: subscript offsets" `Quick test_parse_offsets;
    Alcotest.test_case "parser: precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parser: parens and negation" `Quick test_parse_parens_and_neg;
    Alcotest.test_case "parser: if/else" `Quick test_parse_if_else;
    Alcotest.test_case "parser: fixed cells" `Quick test_parse_fixed_cell;
    Alcotest.test_case "parser: scalars" `Quick test_parse_scalar;
    Alcotest.test_case "parser: error cases" `Quick test_parse_errors;
    Alcotest.test_case "parser: pp roundtrip" `Quick test_pp_roundtrip;
    Alcotest.test_case "if-convert: flattens" `Quick test_if_convert_flattens;
    Alcotest.test_case "if-convert: guards read predicate" `Quick test_if_convert_guard_reads_predicate;
    Alcotest.test_case "if-convert: else negation" `Quick test_if_convert_else_negates;
    Alcotest.test_case "if-convert: nested guards conjoin" `Quick test_if_convert_nested;
    Alcotest.test_case "if-convert: idempotent on flat" `Quick test_if_convert_idempotent;
    Alcotest.test_case "cost: uniform" `Quick test_cost_uniform;
    Alcotest.test_case "cost: weighted" `Quick test_cost_weighted;
    Alcotest.test_case "cost: kinds" `Quick test_kind_of_rhs;
    Alcotest.test_case "depend: fig7 edge set" `Quick test_depend_fig7_edges;
    Alcotest.test_case "depend: flow same iteration" `Quick test_depend_flow_same_iteration;
    Alcotest.test_case "depend: flow distance 2" `Quick test_depend_flow_across;
    Alcotest.test_case "depend: anti across iterations" `Quick test_depend_anti;
    Alcotest.test_case "depend: anti same iteration" `Quick test_depend_anti_same_iteration;
    Alcotest.test_case "depend: output" `Quick test_depend_output;
    Alcotest.test_case "depend: reductions become recurrences" `Quick test_depend_reduction_cell;
    Alcotest.test_case "depend: fixed-cell flow" `Quick test_depend_fixed_cell_flow;
    Alcotest.test_case "depend: weighted latencies" `Quick test_depend_latencies;
    Alcotest.test_case "depend: predicate kind" `Quick test_depend_predicate_kind;
    Alcotest.test_case "depend: zero-distance acyclicity" `Quick test_depend_zero_acyclic;
    Alcotest.test_case "depend: end-to-end schedule" `Quick test_depend_schedules_end_to_end;
    Alcotest.test_case "depend: empty body rejected" `Quick test_depend_empty_rejected;
    Alcotest.test_case "depend: of_source front end" `Quick test_of_source;
  ]
