(* Value-level end-to-end correctness: the transformed parallel loop
   computes exactly what the sequential loop computes. *)

open Helpers
module Ast = Mimd_loop_ir.Ast
module Parser = Mimd_loop_ir.Parser
module Depend = Mimd_loop_ir.Depend
module Interp = Mimd_loop_ir.Interp
module Value_run = Mimd_runtime.Value_run
module Exec_compiled = Mimd_runtime.Exec_compiled
module Lower = Mimd_runtime.Lower

(* ---------------------------------------------------------------- *)
(* The sequential interpreter itself                                 *)

let test_interp_basic () =
  let loop = Parser.parse "for i = 1 to n { X[i] = 2; Y[i] = X[i] + 3; }" in
  let st = Interp.run loop ~iterations:3 in
  Alcotest.(check (float 0.0)) "X[1]" 2.0 (Interp.read st "X" 1);
  Alcotest.(check (float 0.0)) "Y[2]" 5.0 (Interp.read st "Y" 2)

let test_interp_recurrence () =
  (* X[i] = X[i-1] + 1 with X[-1] from init: each step adds one. *)
  let loop = Parser.parse "for i = 1 to n { X[i] = X[i-1] + 1; }" in
  let st = Interp.run ~init:(fun _ _ -> 0.0) loop ~iterations:5 in
  Alcotest.(check (float 0.0)) "X[4] = 5" 5.0 (Interp.read st "X" 4)

let test_interp_initial_values () =
  let loop = Parser.parse "for i = 1 to n { Y[i] = X[i-1]; }" in
  let st = Interp.run loop ~iterations:2 in
  Alcotest.(check (float 0.0)) "reads init" (Interp.init "X" (-1)) (Interp.read st "Y" 0)

let test_interp_fixed_cell_reduction () =
  let loop = Parser.parse "for i = 1 to n { S[0] = S[0] + 1; }" in
  let st = Interp.run ~init:(fun _ _ -> 0.0) loop ~iterations:10 in
  Alcotest.(check (float 0.0)) "sum of ones" 10.0 (Interp.read st "S@0" 0)

let test_interp_if_matches_if_converted () =
  let src =
    "for i = 1 to n { A[i] = A[i-1] - 1; if (A[i]) { B[i] = 2; } else { B[i] = 3; } }"
  in
  let loop = Parser.parse src in
  let flat = Mimd_loop_ir.If_convert.run loop in
  let init _ _ = 2.5 in
  let s1 = Interp.run ~init loop ~iterations:6 in
  let s2 = Interp.run ~init flat ~iterations:6 in
  (* The flat loop also writes predicate cells; compare B only. *)
  for i = 0 to 5 do
    Alcotest.(check (float 0.0))
      (Printf.sprintf "B[%d]" i)
      (Interp.read s1 "B" i) (Interp.read s2 "B" i)
  done

let test_interp_written_cells () =
  let loop = Parser.parse "for i = 1 to n { X[i] = 1; }" in
  let st = Interp.run loop ~iterations:3 in
  check_int "three cells" 3 (List.length (Interp.written_cells st))

let test_interp_instance_values () =
  (* Keyed by (body position, iteration), sorted; a multi-writer cell
     keeps both writers' instances, and the last one is what [run]
     leaves in memory. *)
  let loop = Parser.parse "for i = 1 to n { B[i] = 1; B[i] = B[i] + 2; S[0] = S[0] + B[i]; }" in
  let got = Interp.instance_values loop ~iterations:2 in
  let s0 = Interp.init "S@0" 0 in
  let expected =
    [
      ((0, 0), 1.0); ((0, 1), 1.0); ((1, 0), 3.0); ((1, 1), 3.0); ((2, 0), s0 +. 3.0);
      ((2, 1), s0 +. 6.0);
    ]
  in
  check_bool "instances" true (got = expected);
  let st = Interp.run loop ~iterations:2 in
  Alcotest.(check (float 0.0)) "last writer" 3.0 (Interp.read st "B" 1);
  check_bool "structured loop rejected" true
    (match
       Interp.instance_values (Parser.parse "for i = 1 to n { if (X[i-1]) { X[i] = 1; } }")
         ~iterations:2
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------------------------------------------------------------- *)
(* Parallel value execution                                          *)

let sources =
  [
    ("fig7", Mimd_workloads.Fig7.source);
    ("prefix-sum", "for i = 1 to n { X[i] = X[i-1] + Y[i]; }");
    ( "coupled",
      "for i = 1 to n {\n\
      \  U[i] = U[i-1] + S[i-1] * (V[i-1] - U[i-1]);\n\
      \  V[i] = V[i-1] + S[i-1] * (U[i-1] - V[i-1]);\n\
      \  S[i] = S[i-1] * T[i-1] + U[i] * V[i];\n\
       }" );
    ("reduction", "for i = 1 to n { S[0] = S[0] + W[i-1]; W[i] = S[0] * 2; }");
    ( "multi-writer",
      "for i = 1 to n { B[i] = B[i-1] + 1; B[i] = B[i] * 2; C[i] = B[i] - B[i-1]; }" );
    ( "if-converted",
      "for i = 1 to n { A[i] = A[i-1] - 1; if (A[i]) { B[i] = A[i]; } else { B[i] = 7; } }"
    );
  ]

let compile ?(p = 2) ?(k = 2) ?(iterations = 25) src =
  let loop = Parser.parse src in
  let flat = if Ast.is_flat loop then loop else Mimd_loop_ir.If_convert.run loop in
  let analysis = Depend.analyze flat in
  let graph = analysis.Depend.graph in
  let machine = machine ~p ~k () in
  let schedule = Mimd_core.Cyclic_sched.schedule_iterations ~graph ~machine ~iterations () in
  (flat, Mimd_codegen.From_schedule.run schedule)

(* The lowered evaluator run inline must match the spec instance by
   instance, and its last-writer fold the interpreter's final memory. *)
let check_values ~loop ~iterations program =
  let outcome = Exec_compiled.run_inline ~loop ~program () in
  let spec = Interp.instance_values loop ~iterations in
  Result.bind (Value_run.check_instances ~spec outcome.Value_run.instance_values) (fun () ->
      Value_run.check_against_sequential ~loop ~iterations outcome)

let test_parallel_matches_sequential () =
  List.iter
    (fun (name, src) ->
      let flat, program = compile src in
      match check_values ~loop:flat ~iterations:25 program with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: %s" name e)
    sources

let test_parallel_matches_more_processors () =
  List.iter
    (fun (name, src) ->
      let flat, program = compile ~p:4 src in
      match check_values ~loop:flat ~iterations:25 program with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s on 4 PEs: %s" name e)
    sources

let test_parallel_doacross_programs_too () =
  (* The DOACROSS-generated programs also compute correct values. *)
  List.iter
    (fun (name, src) ->
      let loop = Parser.parse src in
      let flat = if Ast.is_flat loop then loop else Mimd_loop_ir.If_convert.run loop in
      let graph = (Depend.analyze flat).Depend.graph in
      let machine = machine () in
      let doa = Mimd_doacross.Doacross.analyze ~graph ~machine () in
      let schedule = Mimd_doacross.Doacross.effective_schedule doa ~iterations:20 in
      let program = Mimd_codegen.From_schedule.run schedule in
      match check_values ~loop:flat ~iterations:20 program with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s via doacross: %s" name e)
    sources

let test_instances_catch_overwritten_stale_value () =
  (* T[i] is written twice per iteration: the first write reads X[i-1]
     and the second overwrites it with a constant.  Poisoning the
     first compute's operand makes instance (0,0) NaN, but no written
     cell keeps that value, so only the instance-level spec sees it. *)
  let flat, program =
    compile ~k:1 ~iterations:10 "for i = 1 to n { T[i] = X[i-1] * 3; T[i] = 5; X[i] = X[i-1] + 1; }"
  in
  let lowered = Lower.sabotage_stale_slot (Lower.run ~loop:flat ~program ()) in
  let outcome = Exec_compiled.run_inline ~lowered ~loop:flat ~program () in
  check_bool "instance (0,0) is NaN" true
    (Float.is_nan (List.assoc (0, 0) outcome.Value_run.instance_values));
  check_bool "final memory misses it" true
    (Value_run.check_against_sequential ~loop:flat ~iterations:10 outcome = Ok ());
  let spec = Interp.instance_values flat ~iterations:10 in
  match Value_run.check_instances ~spec outcome.Value_run.instance_values with
  | Ok () -> Alcotest.fail "stale overwritten instance escaped the instance-level spec"
  | Error e -> check_bool ("names instance (0,0): " ^ e) true (String.starts_with ~prefix:"instance (0,0)" e)

let test_detects_missing_message () =
  (* Drop one send from a correct program: the executor must fail
     loudly rather than compute garbage. *)
  let loop = Parser.parse "for i = 1 to n { X[i] = X[i-1] + 1; Y[i] = X[i] * 2; }" in
  let graph = (Depend.analyze loop).Depend.graph in
  (* k = 0 so the greedy actually spreads the work and messages flow. *)
  let machine = machine ~k:0 () in
  let schedule = Mimd_core.Cyclic_sched.schedule_iterations ~graph ~machine ~iterations:10 () in
  let program = Mimd_codegen.From_schedule.run schedule in
  let dropped = ref false in
  let programs =
    Array.map
      (fun instrs ->
        List.filter
          (fun instr ->
            match instr with
            | Mimd_codegen.Program.Send _ when not !dropped ->
              dropped := true;
              false
            | _ -> true)
          instrs)
      program.Mimd_codegen.Program.programs
  in
  check_bool "a send was dropped" true !dropped;
  let broken = { program with Mimd_codegen.Program.programs } in
  check_bool "fails loudly" true
    (match Exec_compiled.run_inline ~loop ~program:broken () with
    | _ -> false
    | exception (Mimd_runtime.Watchdog.Runtime_deadlock _ | Invalid_argument _) -> true)

let test_rejects_structured_loop () =
  let loop = Parser.parse "for i = 1 to n { if (X[i-1]) { X[i] = 1; } }" in
  let graph = (Depend.analyze loop).Depend.graph in
  let schedule =
    Mimd_core.Cyclic_sched.schedule_iterations ~graph ~machine:(machine ()) ~iterations:5 ()
  in
  let program = Mimd_codegen.From_schedule.run schedule in
  check_bool "flat required" true
    (match Exec_compiled.run_inline ~loop ~program () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------------------------------------------------------------- *)
(* Fuzzing: random loop programs                                      *)

(* Random flat loops: statements write offset 0 of some array; reads
   use offsets in {-1, 0}, keeping dependence distances within the
   scheduler's {0, 1}.  All distance-0 dependences point forward in
   body order by construction, so every generated loop is a
   well-formed body. *)
let gen_loop =
  QCheck2.Gen.(
    let arrays = [| "A"; "B"; "C"; "D" |] in
    let gen_ref =
      let* arr = int_range 0 (Array.length arrays - 1) in
      let* off = int_range (-1) 0 in
      return (Ast.Ref { array = arrays.(arr); offset = off })
    in
    let rec gen_expr depth =
      if depth = 0 then oneof [ gen_ref; map (fun k -> Ast.Int k) (int_range 1 5) ]
      else
        oneof
          [
            gen_ref;
            map (fun k -> Ast.Int k) (int_range 1 5);
            (let* op = oneofl [ Ast.Add; Ast.Sub; Ast.Mul ] in
             let* a = gen_expr (depth - 1) in
             let* b = gen_expr (depth - 1) in
             return (Ast.Binop (op, a, b)));
          ]
    in
    let* nstmts = int_range 1 6 in
    let* body =
      list_size (return nstmts)
        (let* arr = int_range 0 (Array.length arrays - 1) in
         let* rhs = gen_expr 2 in
         return (Ast.Assign { array = arrays.(arr); offset = 0; rhs }))
    in
    return { Ast.index = "i"; lo = "1"; hi = "n"; body })

let print_loop loop = Format.asprintf "%a" Ast.pp_loop loop

let prop_fuzz_values =
  qtest ~count:120 "fuzz: parallel values = sequential values" gen_loop print_loop
    (fun loop ->
      let graph = (Depend.analyze loop).Depend.graph in
      let machine = machine ~p:3 ~k:1 () in
      let iterations = 12 in
      let schedule =
        Mimd_core.Cyclic_sched.schedule_iterations ~graph ~machine ~iterations ()
      in
      let program = Mimd_codegen.From_schedule.run schedule in
      check_values ~loop ~iterations program = Ok ())

let suite =
  [
    Alcotest.test_case "interp: basics" `Quick test_interp_basic;
    Alcotest.test_case "interp: recurrence" `Quick test_interp_recurrence;
    Alcotest.test_case "interp: initial memory" `Quick test_interp_initial_values;
    Alcotest.test_case "interp: reductions" `Quick test_interp_fixed_cell_reduction;
    Alcotest.test_case "interp: if = if-converted" `Quick test_interp_if_matches_if_converted;
    Alcotest.test_case "interp: written cells" `Quick test_interp_written_cells;
    Alcotest.test_case "interp: instance values" `Quick test_interp_instance_values;
    Alcotest.test_case "values: parallel = sequential" `Quick test_parallel_matches_sequential;
    Alcotest.test_case "values: invariant under more PEs" `Quick test_parallel_matches_more_processors;
    Alcotest.test_case "values: DOACROSS programs correct too" `Quick test_parallel_doacross_programs_too;
    Alcotest.test_case "values: overwritten stale instance caught" `Quick
      test_instances_catch_overwritten_stale_value;
    Alcotest.test_case "values: missing message detected" `Quick test_detects_missing_message;
    Alcotest.test_case "values: rejects structured loops" `Quick test_rejects_structured_loop;
    prop_fuzz_values;
  ]
