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

(* The store's edges: every array sized from both branches, reads
   outside what was written fall back to [init]. *)

let written st = Interp.written_cells st |> List.map (fun (a, i, _) -> (a, i))

let test_interp_untaken_branch () =
  (* init is in [1, 2), so the predicate is always true and C is never
     written, although its table is sized from the else branch. *)
  let loop = Parser.parse "for i = 1 to n { if (A[i-1]) { B[i] = 1; } else { C[i] = 2; } }" in
  let st = Interp.run loop ~iterations:3 in
  check_bool "only B written" true (written st = [ ("B", 0); ("B", 1); ("B", 2) ]);
  Alcotest.(check (float 0.0)) "C[1] reads init" (Interp.init "C" 1) (Interp.read st "C" 1)

let test_interp_negative_reads () =
  let loop = Parser.parse "for i = 1 to n { Y[i] = X[i-2] + Y[i-1]; }" in
  (match Interp.instance_values loop ~iterations:2 with
  | [ ((0, 0), v0); ((0, 1), v1) ] ->
    Alcotest.(check (float 0.0)) "Y[0]" (Interp.init "X" (-2) +. Interp.init "Y" (-1)) v0;
    Alcotest.(check (float 0.0)) "Y[1]" (Interp.init "X" (-1) +. v0) v1
  | _ -> Alcotest.fail "two instances expected");
  let st = Interp.run loop ~iterations:2 in
  Alcotest.(check (float 0.0)) "Y[-1] never written" (Interp.init "Y" (-1)) (Interp.read st "Y" (-1));
  check_bool "Y[0], Y[1] written" true (written st = [ ("Y", 0); ("Y", 1) ])

let test_interp_negative_write () =
  (* X[i] is written one iteration after it is read, so every read
     sees init. *)
  let loop = Parser.parse "for i = 1 to n { X[i-1] = X[i] + 1; }" in
  let cells = Interp.written_cells (Interp.run loop ~iterations:4) in
  check_bool "cells X[-1..2]" true
    (cells = List.init 4 (fun i -> ("X", i - 1, Interp.init "X" i +. 1.0)))

let test_interp_fixed_cell_accumulation () =
  let loop = Parser.parse "for i = 1 to n { S[0] = S[0] + W[i]; }" in
  let st = Interp.run loop ~iterations:5 in
  let sum = ref (Interp.init "S@0" 0) in
  for i = 0 to 4 do
    sum := !sum +. Interp.init "W" i
  done;
  check_bool "one cell S@0[0]" true (Interp.written_cells st = [ ("S@0", 0, !sum) ])

let test_interp_read_only_array () =
  let loop = Parser.parse "for i = 1 to n { Y[i] = Z[i+5]; }" in
  let st = Interp.run loop ~iterations:3 in
  check_bool "Z not written" true (written st = [ ("Y", 0); ("Y", 1); ("Y", 2) ]);
  Alcotest.(check (float 0.0)) "Y[2] = Z[7]" (Interp.init "Z" 7) (Interp.read st "Y" 2);
  Alcotest.(check (float 0.0)) "Z[7] reads init" (Interp.init "Z" 7) (Interp.read st "Z" 7)

let test_interp_zero_iterations () =
  let loop = Parser.parse "for i = 1 to n { X[i] = X[i-1] + 1; S[0] = S[0] + X[i]; }" in
  let st = Interp.run loop ~iterations:0 in
  check_int "no cells" 0 (List.length (Interp.written_cells st));
  check_int "no instances" 0 (List.length (Interp.instance_values loop ~iterations:0));
  Alcotest.(check (float 0.0)) "S@0 reads init" (Interp.init "S@0" 0) (Interp.read st "S@0" 0)

(* Minor-heap words of the oracle on ewf at n=1000, the size the
   exec benchmarks check.  Allocation is deterministic, so this holds
   on any host: a statement instance boxes only its intermediate
   floats (5.8 words) and a written cell is its own list node, tuple
   and boxed value (9.0).  The store it replaced, a (name, index)
   hash table sorted by polymorphic compare, measured 18.8 and 51.9. *)
let test_interp_minor_words () =
  let loop = Parser.parse Mimd_workloads.Elliptic.source in
  let iterations = 1000 in
  ignore (Interp.written_cells (Interp.run loop ~iterations));
  let w0 = Gc.minor_words () in
  let st = Interp.run loop ~iterations in
  let w1 = Gc.minor_words () in
  let cells = Interp.written_cells st in
  let w2 = Gc.minor_words () in
  let per_instance = (w1 -. w0) /. float_of_int (List.length loop.Ast.body * iterations) in
  let per_cell = (w2 -. w1) /. float_of_int (List.length cells) in
  if per_instance > 8.0 then
    Alcotest.failf "Interp.run: %.1f minor words per statement instance (bound 8)" per_instance;
  if per_cell > 10.0 then
    Alcotest.failf "written_cells: %.1f minor words per cell (bound 10)" per_cell

(* The store as a list: an assoc list from (array, index) to the last
   value written, with the same truthiness and fixed-cell convention
   ([X@k] lives at index 0). *)
let model_written_cells (loop : Ast.loop) ~iterations =
  let mem = ref [] in
  let index array ~iter ~offset = if String.contains array '@' then 0 else iter + offset in
  let read key =
    match List.assoc_opt key !mem with Some v -> v | None -> Interp.init (fst key) (snd key)
  in
  let rec eval ~iter = function
    | Ast.Int k -> float_of_int k
    | Ast.Scalar s -> Interp.default_scalar s
    | Ast.Ref { array; offset } -> read (array, index array ~iter ~offset)
    | Ast.Neg e -> -.eval ~iter e
    | Ast.Binop (op, a, b) -> (
      let va = eval ~iter a in
      let vb = eval ~iter b in
      match op with
      | Ast.Add -> va +. vb
      | Ast.Sub -> va -. vb
      | Ast.Mul -> va *. vb
      | Ast.Div -> va /. vb)
    | Ast.Select (p, a, b) -> if eval ~iter p > 0.0 then eval ~iter a else eval ~iter b
  in
  let rec exec ~iter = function
    | Ast.Assign { array; offset; rhs } ->
      let v = eval ~iter rhs in
      let key = (array, index array ~iter ~offset) in
      mem := (key, v) :: List.remove_assoc key !mem
    | Ast.If { cond; then_; else_ } ->
      List.iter (exec ~iter) (if eval ~iter cond > 0.0 then then_ else else_)
  in
  for iter = 0 to iterations - 1 do
    List.iter (exec ~iter) loop.Ast.body
  done;
  List.sort compare !mem |> List.map (fun ((a, i), v) -> (a, i, v))

(* Random structured loops: nested conditionals with optional else
   branches, writes at offsets -1..1 and to a fixed cell, reads at
   -2..1 of written arrays and of a read-only one. *)
let gen_structured_loop =
  QCheck2.Gen.(
    let fixed a = String.contains a '@' in
    let gen_ref =
      let* array = oneofl [ "A"; "B"; "C"; "S@0"; "R" ] in
      let* offset = int_range (-2) 1 in
      return (Ast.Ref { array; offset = (if fixed array then 0 else offset) })
    in
    let rec gen_expr depth =
      let leaves =
        [ gen_ref; map (fun k -> Ast.Int k) (int_range (-2) 3); return (Ast.Scalar "K") ]
      in
      if depth = 0 then oneof leaves
      else
        oneof
          (leaves
          @ [
              map (fun e -> Ast.Neg e) (gen_expr (depth - 1));
              (let* op = oneofl [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div ] in
               let* a = gen_expr (depth - 1) in
               let* b = gen_expr (depth - 1) in
               return (Ast.Binop (op, a, b)));
            ])
    in
    let gen_assign =
      let* array = oneofl [ "A"; "B"; "C"; "S@0" ] in
      let* offset = int_range (-1) 1 in
      let* rhs = gen_expr 2 in
      return (Ast.Assign { array; offset = (if fixed array then 0 else offset); rhs })
    in
    let rec gen_stmt depth =
      if depth = 0 then gen_assign
      else
        frequency
          [
            (2, gen_assign);
            ( 1,
              let* cond = gen_expr 1 in
              let* then_ = list_size (int_range 1 2) (gen_stmt (depth - 1)) in
              let* else_ = list_size (int_range 0 2) (gen_stmt (depth - 1)) in
              return (Ast.If { cond; then_; else_ }) );
          ]
    in
    let* body = list_size (int_range 1 4) (gen_stmt 2) in
    let* iterations = int_range 0 8 in
    return ({ Ast.index = "i"; lo = "1"; hi = "n"; body }, iterations))

let same_cells a b =
  List.length a = List.length b
  && List.for_all2
       (fun (a1, i1, v1) (a2, i2, v2) ->
         String.equal a1 a2 && i1 = i2
         && Int64.equal (Int64.bits_of_float v1) (Int64.bits_of_float v2))
       a b

let prop_interp_matches_model =
  qtest ~count:200 "interp: written cells = assoc-list model" gen_structured_loop
    (fun (loop, iterations) ->
      Printf.sprintf "%s\niterations = %d" (Format.asprintf "%a" Ast.pp_loop loop) iterations)
    (fun (loop, iterations) ->
      List.for_all
        (fun loop ->
          same_cells
            (Interp.written_cells (Interp.run loop ~iterations))
            (model_written_cells loop ~iterations))
        [ loop; Mimd_loop_ir.If_convert.run loop ])

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
  let analysis = Depend.analyze_string src in
  let flat = analysis.Depend.loop and graph = analysis.Depend.graph in
  let machine = machine ~p ~k () in
  let schedule = Mimd_core.Cyclic_sched.schedule_iterations ~graph ~machine ~iterations () in
  (flat, Mimd_codegen.From_schedule.run schedule)

(* The lowered evaluator run inline must match the spec instance by
   instance, and its last-writer fold the interpreter's final memory. *)
let check_values ~loop ~iterations program =
  let outcome = Exec_compiled.run_inline ~loop ~program () in
  let spec = Value_run.spec ~loop ~iterations in
  Result.bind (Value_run.check_instances ~spec outcome.Value_run.instances) (fun () ->
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
      let { Depend.loop = flat; graph; _ } = Depend.analyze_string src in
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
    (Float.is_nan (List.assoc (0, 0) (Value_run.instance_values outcome)));
  check_bool "final memory misses it" true
    (Value_run.check_against_sequential ~loop:flat ~iterations:10 outcome = Ok ());
  let spec = Value_run.spec ~loop:flat ~iterations:10 in
  match Value_run.check_instances ~spec outcome.Value_run.instances with
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

(* ---------------------------------------------------------------- *)
(* The outcome fold on its own                                        *)

(* Per-PE value arrays built by hand from the spec, in an order no
   executor uses, so the fold alone must place every value: B[i] has
   two writers in one iteration (the later body position wins) and a
   third, B[i+1], that the next iteration overwrites; S[0] is the fixed
   cell S@0; C and B are written at nonzero offsets. *)
let test_fold_from_value_arrays () =
  let src =
    "for i = 1 to n { B[i] = B[i] + 1; B[i] = B[i] * 2; S[0] = S[0] + B[i]; \
     C[i+2] = B[i] - C[i+1]; B[i+1] = B[i] + 3; }"
  in
  let iterations = 7 in
  let loop, program = compile ~iterations src in
  let spec = Interp.instance_values loop ~iterations in
  (* PE0 takes even iterations, last first; PE1 the rest, node-major. *)
  let on_pe0 ((_, iter), _) = iter mod 2 = 0 in
  let pe0 = List.rev (List.filter on_pe0 spec) and pe1 = List.filter (fun x -> not (on_pe0 x)) spec in
  let computes = Array.map (fun l -> Array.of_list (List.map fst l)) [| pe0; pe1 |] in
  let vals = Array.map (fun l -> Array.of_list (List.map snd l)) [| pe0; pe1 |] in
  let results = Array.map (fun v -> (v, 0, 0.0)) vals in
  let outcome = Value_run.finalize ~loop ~program ~computes ~results in
  check_bool "instance_values = Interp.instance_values" true
    (Value_run.instance_values outcome = spec);
  let expected = Interp.written_cells (Interp.run loop ~iterations) in
  check_bool "final = Interp.written_cells" true (Value_run.final outcome = expected);
  check_bool "fixed cell S@0 at index 0" true
    (List.exists (fun (a, i, _) -> a = "S@0" && i = 0) (Value_run.final outcome));
  let short = Array.copy results in
  short.(1) <- (Array.sub vals.(1) 0 (Array.length vals.(1) - 1), 0, 0.0);
  check_bool "value array shorter than its computes rejected" true
    (match Value_run.finalize ~loop ~program ~computes ~results:short with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* Outcomes built by hand: [A[i] = 3; B[i] = A[i] * 2] over three
   iterations, every listed instance on one PE with the given value.
   The sequential run writes A[0..2] = 3 and B[0..2] = 6. *)
let hand_loop, hand_program =
  compile ~iterations:3 "for i = 1 to n { A[i] = 3; B[i] = A[i] * 2; }"

let hand_outcome instances =
  let computes = [| Array.of_list (List.map fst instances) |] in
  let results = [| (Array.of_list (List.map snd instances), 0, 0.0) |] in
  Value_run.finalize ~loop:hand_loop ~program:hand_program ~computes ~results

let hand_spec =
  [ ((0, 0), 3.0); ((0, 1), 3.0); ((0, 2), 3.0); ((1, 0), 6.0); ((1, 1), 6.0); ((1, 2), 6.0) ]

let set_value key v = List.map (fun (k, v') -> (k, if k = key then v else v'))
let without key = List.filter (fun (k, _) -> k <> key)

(* The list walk the dense comparisons replaced, kept as the reference
   for which mismatch comes first. *)
let list_walk expected got =
  if List.length expected <> List.length got then
    Error
      (Printf.sprintf "cell count mismatch: sequential wrote %d, parallel %d"
         (List.length expected) (List.length got))
  else
    let rec go = function
      | (a1, i1, v1) :: r1, (a2, i2, v2) :: r2 ->
        if a1 <> a2 || i1 <> i2 then
          Error (Printf.sprintf "cell mismatch: sequential %s[%d] vs parallel %s[%d]" a1 i1 a2 i2)
        else if not (Interp.same_bits v1 v2) then
          Error
            (Printf.sprintf "value mismatch at %s[%d]: sequential %.17g, parallel %.17g" a1 i1
               v1 v2)
        else go (r1, r2)
      | _ -> Ok ()
    in
    go (expected, got)

let check_result = Alcotest.(check (result unit string))

let test_final_memory_error_texts () =
  let expected = Interp.written_cells (Interp.run hand_loop ~iterations:3) in
  let verdict instances =
    let o = hand_outcome instances in
    (Value_run.check_against_sequential ~loop:hand_loop ~iterations:3 o, Value_run.final o)
  in
  let check_text label want instances =
    let got, final = verdict instances in
    check_result label (Error want) got;
    check_result (label ^ ", as the list walk") (list_walk expected final) got
  in
  check_result "the spec itself passes" (Ok ()) (fst (verdict hand_spec));
  let no_b2 = without (1, 2) hand_spec in
  check_text "a missing cell" "cell count mismatch: sequential wrote 6, parallel 5" no_b2;
  check_text "a cell moved" "cell mismatch: sequential B[0] vs parallel A[3]"
    (no_b2 @ [ ((0, 3), 3.0) ]);
  check_text "a wrong value" "value mismatch at A[1]: sequential 3, parallel 4"
    (set_value (0, 1) 4.0 hand_spec);
  check_text "a sign bit" "value mismatch at B[2]: sequential 6, parallel -6"
    (set_value (1, 2) (-6.0) hand_spec)

let test_instance_error_texts () =
  let spec = Value_run.spec ~loop:hand_loop ~iterations:3 in
  let check_text label want instances =
    check_result label want
      (Value_run.check_instances ~spec (hand_outcome instances).Value_run.instances)
  in
  check_text "the spec itself passes" (Ok ()) hand_spec;
  let no_b2 = without (1, 2) hand_spec in
  check_text "a missing instance" (Error "sequential computed 6 instance(s), parallel 5") no_b2;
  check_text "an instance moved" (Error "instance sets differ at (1,0) vs (0,3)")
    (no_b2 @ [ ((0, 3), 3.0) ]);
  check_text "a wrong value" (Error "instance (0,1): sequential 0x1.8p+1, parallel 0x1p+2")
    (set_value (0, 1) 4.0 hand_spec)

(* run-dist --vs-domains compares two outcomes bit for bit: a signed
   zero is a different value, the same NaN is the same value. *)
let test_same_values_by_bits () =
  let same a0 a0' =
    Value_run.same_values
      (hand_outcome (set_value (0, 0) a0 hand_spec))
      (hand_outcome (set_value (0, 0) a0' hand_spec))
  in
  check_bool "identical tables" true (same 3.0 3.0);
  check_bool "0.0 vs -0.0 differ" false (same 0.0 (-0.0));
  check_bool "the same NaN matches" true (same Float.nan Float.nan);
  check_bool "a missing instance differs" false
    (Value_run.same_values (hand_outcome hand_spec) (hand_outcome (without (0, 0) hand_spec)))

(* Words allocated, minor plus directly major: deterministic, so the
   bounds hold on any host.  [Gc.minor_words], not the minor count of
   [Gc.counters], which may leave out the words allocated since the
   last minor collection. *)
let words_of f =
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* ewf at p=2, k=2, n=1000 (17 000 instances), the exec benchmark's
   size.  The fold costs its tables: one float per instance, a present
   byte, a store cell per written cell (39 505 words, 2.32 an
   instance); the sorted lists it replaced cost 380 027 (22.4).  The
   final-memory check costs Interp.run and nothing more (115 754
   words, bound 10% above; the list walk cost 268 535). *)
let test_finalize_words_bounded () =
  let flat, program, iterations = ewf_benchmark_shape () in
  let computes = Lower.computes (Lower.run ~loop:flat ~program ()) in
  let spec = Interp.instance_table flat ~iterations in
  let value (n, i) = spec.((n * iterations) + i) in
  let results = Array.map (fun cs -> (Array.map value cs, 0, 0.0)) computes in
  let instances = Array.fold_left (fun a cs -> a + Array.length cs) 0 computes in
  check_int "one compute per instance" (List.length flat.Ast.body * iterations) instances;
  let finalize () = Value_run.finalize ~loop:flat ~program ~computes ~results in
  ignore (finalize ());
  let outcome, fold = words_of finalize in
  if fold > 3.0 *. float_of_int instances then
    Alcotest.failf "finalize: %.0f words for %d instances (bound 3 an instance)" fold instances;
  let verdict, check =
    words_of (fun () -> Value_run.check_against_sequential ~loop:flat ~iterations outcome)
  in
  check_result "values agree" (Ok ()) verdict;
  if check > 127_329.0 then
    Alcotest.failf "check_against_sequential: %.0f words (bound 127 329)" check

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
    Alcotest.test_case "interp: untaken branch leaves no cell" `Quick test_interp_untaken_branch;
    Alcotest.test_case "interp: negative reads at iteration 0" `Quick test_interp_negative_reads;
    Alcotest.test_case "interp: write at a negative offset" `Quick test_interp_negative_write;
    Alcotest.test_case "interp: fixed-cell accumulation" `Quick test_interp_fixed_cell_accumulation;
    Alcotest.test_case "interp: read-only array" `Quick test_interp_read_only_array;
    Alcotest.test_case "interp: zero iterations" `Quick test_interp_zero_iterations;
    Alcotest.test_case "interp: minor words bounded" `Quick test_interp_minor_words;
    prop_interp_matches_model;
    Alcotest.test_case "values: parallel = sequential" `Quick test_parallel_matches_sequential;
    Alcotest.test_case "values: invariant under more PEs" `Quick test_parallel_matches_more_processors;
    Alcotest.test_case "values: DOACROSS programs correct too" `Quick test_parallel_doacross_programs_too;
    Alcotest.test_case "values: overwritten stale instance caught" `Quick
      test_instances_catch_overwritten_stale_value;
    Alcotest.test_case "values: missing message detected" `Quick test_detects_missing_message;
    Alcotest.test_case "values: rejects structured loops" `Quick test_rejects_structured_loop;
    prop_fuzz_values;
    Alcotest.test_case "values: fold from per-PE value arrays" `Quick test_fold_from_value_arrays;
    Alcotest.test_case "values: final-memory error texts" `Quick test_final_memory_error_texts;
    Alcotest.test_case "values: instance error texts" `Quick test_instance_error_texts;
    Alcotest.test_case "values: same_values compares bits" `Quick test_same_values_by_bits;
    Alcotest.test_case "values: finalize and check words bounded" `Quick
      test_finalize_words_bounded;
  ]
