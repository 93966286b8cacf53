(* The independent validator and the cross-layer fuzzing oracle:
   shipped workloads check clean, every class of defect is detected,
   the validator agrees with (but does not reuse) the scheduler's own
   feasibility check, and the fuzz harness catches injected dependence
   violations with a shrunk, replayable counterexample. *)

open Helpers
module Graph = Mimd_ddg.Graph
module Schedule = Mimd_core.Schedule
module Pattern = Mimd_core.Pattern
module Full_sched = Mimd_core.Full_sched
module Cyclic_sched = Mimd_core.Cyclic_sched
module From_schedule = Mimd_codegen.From_schedule
module Program = Mimd_codegen.Program
module V = Mimd_check.Validate
module F = Mimd_check.Fuzz
module W = Mimd_workloads

let full_of ?(p = 2) ?(k = 2) ?(iterations = 12) g =
  Full_sched.run ~graph:g ~machine:(machine ~p ~k ()) ~iterations ()

let workload_graphs () =
  [
    ("fig1", W.Fig1.graph ());
    ("fig3", W.Fig3.graph ());
    ("fig7", W.Fig7.graph ());
    ("cytron86", W.Cytron86.graph ());
    ("ewf", W.Elliptic.graph ());
    ("ll5", (W.Recurrences.ll5 ()).W.Recurrences.graph);
    ("ll23", (W.Recurrences.ll23 ()).W.Recurrences.graph);
  ]

(* ---------------------------------------------------------------- *)
(* Clean pipelines check clean                                       *)

let test_workloads_clean () =
  List.iter
    (fun (name, g) ->
      let report = V.full (full_of g) in
      if not (V.ok report) then
        Alcotest.failf "%s: %s" name (V.render ~names:(Graph.name g) report))
    (workload_graphs ())

let test_counters_show_work () =
  (* A clean report still proves the checker looked at something. *)
  let report = V.full (full_of (fig7 ())) in
  let counter label =
    match List.assoc_opt label report.V.counters with
    | Some n -> n
    | None -> Alcotest.failf "counter %S missing" label
  in
  check_bool "instances counted" true (counter "instances" > 0);
  check_bool "constraints counted" true (counter "dependence constraints" > 0);
  check_bool "messages counted" true (counter "messages delivered" > 0)

(* ---------------------------------------------------------------- *)
(* Detection: every class of defect                                  *)

let test_broken_dependence_detected () =
  (* break_dependence hastens one dependent instance by one cycle; the
     independent checker and the scheduler's own feasibility check
     must BOTH reject the result (they share no code). *)
  List.iter
    (fun (name, g) ->
      let sched = (full_of g).Full_sched.schedule in
      match V.break_dependence sched with
      | None -> Alcotest.failf "%s: no dependence constraint to break" name
      | Some broken ->
        let report = V.schedule broken in
        check_bool (name ^ ": validator rejects") false (V.ok report);
        check_bool
          (name ^ ": a Dependence or Overlap issue is reported")
          true
          (List.exists
             (function V.Dependence _ | V.Overlap _ -> true | _ -> false)
             report.V.issues);
        check_bool (name ^ ": core validate agrees") true
          (Schedule.validate broken <> Ok ()))
    (workload_graphs ());
  (* and the original schedules were fine, so it is the hastening that
     is detected, not some ambient property *)
  List.iter
    (fun (name, g) ->
      check_bool (name ^ ": unbroken is clean") true
        (V.ok (V.schedule (full_of g).Full_sched.schedule)))
    (workload_graphs ())

let test_overlap_detected () =
  let g = graph_of ~latencies:[| 2; 1 |] ~edges:[] in
  let m = machine ~p:1 () in
  let sched =
    Schedule.make ~graph:g ~machine:m
      [
        { inst = { node = 0; iter = 0 }; proc = 0; start = 0 };
        (* node 0 occupies cycles 0-1; starting node 1 at cycle 1
           collides with its second busy cycle *)
        { inst = { node = 1; iter = 0 }; proc = 0; start = 1 };
      ]
  in
  let report = V.schedule sched in
  check_bool "overlap reported" true
    (List.exists
       (function V.Overlap { cycle = 1; _ } -> true | _ -> false)
       report.V.issues)

let test_missing_detected () =
  let g = graph_of ~latencies:[| 1; 1 |] ~edges:[] in
  let m = machine ~p:2 () in
  let sched =
    Schedule.make ~graph:g ~machine:m
      [ { inst = { node = 0; iter = 0 }; proc = 0; start = 0 } ]
  in
  let report = V.schedule sched in
  check_bool "missing instance reported" true
    (List.exists
       (function V.Missing { node = 1; iter = 0 } -> true | _ -> false)
       report.V.issues);
  (* pattern slices legitimately omit instances *)
  check_bool "complete:false allows it" true (V.ok (V.schedule ~complete:false sched))

let pattern_of g =
  match (full_of g).Full_sched.pattern with
  | Some p -> p
  | None -> Alcotest.fail "expected a steady-state pattern"

let test_pattern_clean_and_tampering_detected () =
  let p = pattern_of (W.Fig3.graph ()) in
  check_bool "genuine pattern is clean" true (V.ok (V.pattern p));
  (* claim one more iteration per repetition than the body holds *)
  let inflated = { p with Pattern.iter_shift = p.Pattern.iter_shift + 1 } in
  check_bool "iter_shift tamper detected" false (V.ok (V.pattern inflated));
  (* shrink the window so body entries fall outside (or height dies) *)
  let squashed = { p with Pattern.height = p.Pattern.height - 1 } in
  check_bool "height tamper detected" false (V.ok (V.pattern squashed))

let test_pattern_rerolls_many_trip_counts () =
  let p = pattern_of (W.Fig3.graph ()) in
  let report = V.pattern ~trips:[ 1; 4; 9; 17 ] p in
  check_bool "explicit trips clean" true (V.ok report);
  check_int "trip counter" 4 (List.assoc "re-rolled trip counts" report.V.counters)

let drop_first_send program =
  let dropped = ref false in
  let programs =
    Array.map
      (List.filter (fun instr ->
           match instr with
           | Program.Send _ when not !dropped ->
             dropped := true;
             false
           | _ -> true))
      program.Program.programs
  in
  check_bool "a send was dropped" true !dropped;
  { program with Program.programs }

let test_protocol_deadlock_detected () =
  (* k = 0 spreads the work, so messages actually flow. *)
  let g = fig7 () in
  let sched =
    Cyclic_sched.schedule_iterations ~graph:g ~machine:(machine ~k:0 ()) ~iterations:10 ()
  in
  let program = From_schedule.run sched in
  check_bool "intact protocol is clean" true (V.ok (V.program program));
  let broken = drop_first_send program in
  let report = V.program broken in
  check_bool "static pairing defect reported" true
    (List.exists (function V.Protocol_defect _ -> true | _ -> false) report.V.issues);
  check_bool "token simulation deadlocks" true
    (List.exists
       (function
         | V.Protocol_deadlock { stuck; _ } -> stuck <> [] | _ -> false)
       report.V.issues)

let test_protocol_capacity_guard () =
  let program = From_schedule.run (full_of (fig7 ())).Full_sched.schedule in
  check_bool "capacity 0 rejected" true
    (match V.program ~capacity:0 program with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------------------------------------------------------------- *)
(* Hook wiring                                                       *)

let test_hooks_route_validate_flags () =
  V.install_hooks ();
  (* clean pipelines pass through ~validate:true silently *)
  let full =
    Full_sched.run ~validate:true ~graph:(fig7 ()) ~machine:(machine ()) ~iterations:10 ()
  in
  let (_ : Program.t) = From_schedule.run ~validate:true full.Full_sched.schedule in
  (* the installed validators are mimd_check's, not the layers' own *)
  (match V.break_dependence full.Full_sched.schedule with
  | None -> Alcotest.fail "fig7 should have a breakable dependence"
  | Some broken ->
    check_bool "installed schedule validator rejects" true
      (!Full_sched.validator broken <> Ok ()));
  let broken_program = drop_first_send (From_schedule.run full.Full_sched.schedule) in
  check_bool "installed program validator rejects" true
    (!From_schedule.validator broken_program <> Ok ())

(* ---------------------------------------------------------------- *)
(* The fuzzing oracle                                                *)

let test_fuzz_passes_on_sound_pipeline () =
  match
    F.run
      {
        F.count = 25;
        seed = 3;
        fault = F.No_fault;
        runtime = false;
        out_dir = None;
        oracle = F.Pipeline;
        matrix = false;
      }
  with
  | F.Passed n -> check_int "all cases ran" 25 n
  | F.Failed { reason; case; _ } ->
    Alcotest.failf "sound pipeline failed fuzz: %s\n%s" reason (F.render_case case)

let test_fuzz_matrix_differential () =
  (* The calibrated-machine differential: every case is priced (and
     simulated) with an asymmetric per-link matrix, and the values must
     still match the sequential interpreter bit for bit. *)
  match
    F.run
      {
        F.count = 25;
        seed = 5;
        fault = F.No_fault;
        runtime = false;
        out_dir = None;
        oracle = F.Pipeline;
        matrix = true;
      }
  with
  | F.Passed n -> check_int "all matrix cases ran" 25 n
  | F.Failed { reason; case; _ } ->
    Alcotest.failf "matrix-mode pipeline failed fuzz: %s\n%s" reason (F.render_case case)

let test_fuzz_runtime_differential_smoke () =
  (* A few cases with the real-domain differential switched on. *)
  match
    F.run
      {
        F.count = 6;
        seed = 9;
        fault = F.No_fault;
        runtime = true;
        out_dir = None;
        oracle = F.Pipeline;
        matrix = false;
      }
  with
  | F.Passed _ -> ()
  | F.Failed { reason; _ } -> Alcotest.failf "runtime differential fuzz: %s" reason

let test_fuzz_catches_injected_violation () =
  (* The committed negative test: with a dependence violation injected
     into every schedule, the harness must fail, shrink, and dump a
     replayable counterexample that fails again when replayed. *)
  let dir = Filename.get_temp_dir_name () in
  match
    F.run
      {
        F.count = 40;
        seed = 11;
        fault = F.Hasten_dependent;
        runtime = false;
        out_dir = Some dir;
        oracle = F.Pipeline;
        matrix = false;
      }
  with
  | F.Passed _ -> Alcotest.fail "injected dependence violations went undetected"
  | F.Failed { case; reason; file } ->
    check_bool "failure carries a reason" true (reason <> "");
    let path =
      match file with Some p -> p | None -> Alcotest.fail "no counterexample dumped"
    in
    check_bool "dump exists" true (Sys.file_exists path);
    (* the dump parses back into the same case ... *)
    let replayed = F.load_case path in
    check_int "processors survive the round trip" case.F.processors replayed.F.processors;
    check_int "comm survives the round trip" case.F.comm replayed.F.comm;
    check_int "iterations survive the round trip" case.F.iterations replayed.F.iterations;
    check_string "loop source survives the round trip"
      (Format.asprintf "%a" Mimd_loop_ir.Ast.pp_loop case.F.loop)
      (Format.asprintf "%a" Mimd_loop_ir.Ast.pp_loop replayed.F.loop);
    (* ... and replaying it under the same fault fails again *)
    check_bool "replay reproduces the failure" true
      (F.check_case ~fault:F.Hasten_dependent ~runtime:false replayed <> Ok ());
    (* without the fault the pipeline is sound on this loop *)
    check_bool "replay without fault is clean" true
      (F.check_case ~runtime:false replayed = Ok ());
    Sys.remove path

let test_case_file_round_trip () =
  let case =
    {
      F.loop = W.Random_loop.generate_loop ~seed:7 ();
      processors = 3;
      comm = 1;
      iterations = 9;
      oracle = F.Pipeline;
      matrix = true;
    }
  in
  let dir = Filename.get_temp_dir_name () in
  let name = Printf.sprintf "mimd-check-roundtrip-%d.loop" (Unix.getpid ()) in
  let path = F.dump_case ~name ~dir ~reason:"round trip" case in
  let back = F.load_case path in
  Sys.remove path;
  check_int "processors" case.F.processors back.F.processors;
  check_int "comm" case.F.comm back.F.comm;
  check_int "iterations" case.F.iterations back.F.iterations;
  check_bool "matrix mode survives the round trip" case.F.matrix back.F.matrix;
  check_string "loop"
    (Format.asprintf "%a" Mimd_loop_ir.Ast.pp_loop case.F.loop)
    (Format.asprintf "%a" Mimd_loop_ir.Ast.pp_loop back.F.loop)

(* Replay headers: [# oracle: exec] named the retired compiled-vs-
   interpreted oracle, and its checks now ride the comm oracle; any
   other unknown oracle is an error naming it, never a silent fallback
   to the pipeline oracle. *)
let with_case_file ~tag header k =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mimd-check-%s-%d.loop" tag (Unix.getpid ()))
  in
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc
        "# %s\n# processors: 2\n# comm: 1\n# iterations: 6\n\
         for i = 1 to n { A[i] = A[i-1] + 1; B[i] = A[i] * 2; }\n"
        header);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> k path)

let test_exec_oracle_replays_as_comm () =
  with_case_file ~tag:"exec-oracle" "oracle: exec" (fun path ->
      let case = F.load_case path in
      check_bool "exec header maps to the comm oracle" true (case.F.oracle = F.Comm);
      check_int "other headers still read" 6 case.F.iterations;
      check_bool "replays clean through the comm oracle" true
        (F.check_comm_case ~runtime:false case = Ok ()))

let test_unknown_oracle_rejected () =
  with_case_file ~tag:"bogus-oracle" "oracle: bogus" (fun path ->
      match F.load_case path with
      | _ -> Alcotest.fail "unknown oracle header was accepted"
      | exception Failure m ->
        check_string "error names the unknown oracle"
          (Printf.sprintf "%s: unknown fuzz oracle \"bogus\"" path)
          m)

(* Dumped counterexamples must stay replayable for arbitrary generated
   loops, not just the ones a particular failure happens to produce. *)
let prop_case_files_replayable =
  qtest ~count:60 "check: case files round-trip through disk"
    QCheck2.Gen.(int_range 1 1_000_000)
    string_of_int
    (fun seed ->
      let case =
        {
          F.loop = W.Random_loop.generate_loop ~seed ();
          processors = 2 + (seed mod 3);
          comm = seed mod 3;
          iterations = 4 + (seed mod 9);
          oracle = F.Pipeline;
          matrix = seed mod 2 = 0;
        }
      in
      let dir = Filename.get_temp_dir_name () in
      let name = Printf.sprintf "mimd-check-prop-%d-%d.loop" (Unix.getpid ()) seed in
      let path = F.dump_case ~name ~dir ~reason:"prop" case in
      let back = F.load_case path in
      Sys.remove path;
      back.F.processors = case.F.processors
      && back.F.comm = case.F.comm
      && back.F.iterations = case.F.iterations
      && back.F.matrix = case.F.matrix
      && Format.asprintf "%a" Mimd_loop_ir.Ast.pp_loop back.F.loop
         = Format.asprintf "%a" Mimd_loop_ir.Ast.pp_loop case.F.loop)

let suite =
  [
    Alcotest.test_case "validator: shipped workloads clean" `Quick test_workloads_clean;
    Alcotest.test_case "validator: counters show work" `Quick test_counters_show_work;
    Alcotest.test_case "validator: broken dependence detected" `Quick
      test_broken_dependence_detected;
    Alcotest.test_case "validator: overlap detected" `Quick test_overlap_detected;
    Alcotest.test_case "validator: missing instance detected" `Quick test_missing_detected;
    Alcotest.test_case "validator: pattern tampering detected" `Quick
      test_pattern_clean_and_tampering_detected;
    Alcotest.test_case "validator: pattern re-rolls" `Quick test_pattern_rerolls_many_trip_counts;
    Alcotest.test_case "validator: protocol deadlock detected" `Quick
      test_protocol_deadlock_detected;
    Alcotest.test_case "validator: capacity guard" `Quick test_protocol_capacity_guard;
    Alcotest.test_case "validator: hooks route ~validate" `Quick test_hooks_route_validate_flags;
    Alcotest.test_case "fuzz: sound pipeline passes" `Quick test_fuzz_passes_on_sound_pipeline;
    Alcotest.test_case "fuzz: matrix-mode differential" `Quick test_fuzz_matrix_differential;
    Alcotest.test_case "fuzz: runtime differential smoke" `Quick
      test_fuzz_runtime_differential_smoke;
    Alcotest.test_case "fuzz: injected violation caught (negative)" `Quick
      test_fuzz_catches_injected_violation;
    Alcotest.test_case "fuzz: case file round trip" `Quick test_case_file_round_trip;
    Alcotest.test_case "fuzz: exec oracle header replays as comm" `Quick
      test_exec_oracle_replays_as_comm;
    Alcotest.test_case "fuzz: unknown oracle header rejected" `Quick
      test_unknown_oracle_rejected;
    prop_case_files_replayable;
  ]
