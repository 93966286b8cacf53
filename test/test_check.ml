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

(* Minor-heap words of one [V.full] on ewf as the exec benchmark
   compiles it (p=2 k=2 n=1000, 17000 instances): 1150649 (67.7 per
   instance) when the bound was set, 10% below it.  Allocation is
   deterministic, so this holds on any host. *)
let test_validate_minor_words () =
  let flat = Mimd_loop_ir.Parser.parse W.Elliptic.source in
  let graph = (Mimd_loop_ir.Depend.analyze flat).Mimd_loop_ir.Depend.graph in
  let full = Full_sched.run ~graph ~machine:(machine ()) ~iterations:1000 () in
  let w0 = Gc.minor_words () in
  let report = V.full full in
  let words = Gc.minor_words () -. w0 in
  check_bool "ewf clean" true (V.ok report);
  if words > 17_993.0 then
    Alcotest.failf "Validate.full: %.0f minor words on ewf n=1000 (bound 17993)" words

let test_counters_pinned () =
  (* Every counter of a clean [V.full] at p=2 k=2 n=1000: the cells,
     constraints and messages examined, pinned to the values the
     tuple-keyed validator produced, so a rewrite of its tables must
     examine exactly the same work. *)
  List.iter
    (fun (name, g, expected) ->
      let report = V.full (full_of ~iterations:1000 g) in
      check_bool (name ^ ": clean") true (V.ok report);
      Alcotest.(check (list (pair string int))) name expected report.V.counters)
    [
      ( "fig1",
        W.Fig1.graph (),
        [
          ("instances", 12000);
          ("occupancy cells", 12000);
          ("dependence constraints", 12998);
          ("re-rolled trip counts", 5);
          ("messages delivered", 4000);
          ("channel capacity", 256);
        ] );
      ( "fig7",
        W.Fig7.graph (),
        [
          ("instances", 5000);
          ("occupancy cells", 5000);
          ("dependence constraints", 6996);
          ("re-rolled trip counts", 5);
          ("messages delivered", 1998);
          ("channel capacity", 256);
        ] );
      ( "ewf",
        W.Elliptic.graph (),
        [
          ("instances", 34000);
          ("occupancy cells", 42000);
          ("dependence constraints", 59984);
          ("re-rolled trip counts", 5);
          ("messages delivered", 6998);
          ("channel capacity", 256);
        ] );
    ]

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

let entry n i proc start : Schedule.entry = { inst = { node = n; iter = i }; proc; start }

let overlaps report =
  List.filter_map
    (function
      | V.Overlap { proc; cycle; a; b } ->
        Some (Printf.sprintf "PE%d@%d %d_%d/%d_%d" proc cycle a.node a.iter b.node b.iter)
      | _ -> None)
    report.V.issues

let test_overlap_far_from_cycle_zero () =
  (* The occupancy arrays cover each PE's busy range only; a PE whose
     first entry starts at cycle 1000 reports the same cell. *)
  let g = graph_of ~latencies:[| 3; 1 |] ~edges:[] in
  let sched =
    Schedule.make ~graph:g ~machine:(machine ~p:1 ()) [ entry 0 0 0 1000; entry 1 0 0 1002 ]
  in
  let report = V.schedule ~complete:false sched in
  Alcotest.(check (list string)) "overlap" [ "PE0@1002 0_0/1_0" ] (overlaps report);
  check_int "cells" 4 (List.assoc "occupancy cells" report.V.counters)

let test_overlap_disjoint_busy_ranges () =
  (* PE0 is busy around cycle 3, PE1 around cycle 700; each reports
     its own overlaps, once per pair of instances, at the first shared
     cycle. *)
  let g = graph_of ~latencies:[| 3; 1; 2 |] ~edges:[] in
  let sched =
    Schedule.make ~graph:g ~machine:(machine ~p:2 ())
      [
        entry 0 0 0 3;
        entry 1 0 0 4;
        entry 2 0 0 4;
        entry 0 1 1 700;
        entry 1 1 1 702;
        entry 2 1 1 701;
      ]
  in
  let report = V.schedule ~complete:false sched in
  Alcotest.(check (list string))
    "overlaps"
    [ "PE0@4 0_0/1_0"; "PE0@4 0_0/2_0"; "PE1@701 0_1/2_1"; "PE1@702 0_1/1_1" ]
    (overlaps report);
  check_int "cells" 12 (List.assoc "occupancy cells" report.V.counters)

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
      (Program.to_instrs program)
  in
  check_bool "a send was dropped" true !dropped;
  Program.of_instrs program.Program.graph programs

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
  check_bool "simulation deadlocks" true
    (List.exists
       (function
         | V.Protocol_deadlock { stuck; _ } -> stuck <> [] | _ -> false)
       report.V.issues)

(* Remove the first Send and the Recv that matches it: the pairing is
   still perfect, so only a simulation that tracks operands sees that
   the consumer never gets its value. *)
let drop_matched_pair (program : Program.t) =
  let dropped = ref None in
  let programs =
    Array.mapi
      (fun src ->
        List.filter (fun instr ->
            match (instr, !dropped) with
            | Program.Send { tag; dst }, None ->
              dropped := Some (tag, src, dst);
              false
            | _ -> true))
      (Program.to_instrs program)
  in
  match !dropped with
  | None -> Alcotest.fail "no send to drop"
  | Some (tag, src, dst) ->
    programs.(dst) <-
      List.filter
        (function Program.Recv { tag = t; src = s } -> not (t = tag && s = src) | _ -> true)
        programs.(dst);
    Program.of_instrs program.Program.graph programs

let test_protocol_missing_operand_detected () =
  List.iter
    (fun (name, g, p) ->
      let program = From_schedule.run (full_of ~p ~iterations:20 g).Full_sched.schedule in
      let broken = drop_matched_pair program in
      check_int (name ^ ": pairing still perfect") 0 (List.length (Program.check broken));
      let report = V.program broken in
      check_bool (name ^ ": missing operand reported") true
        (List.exists
           (function
             | V.Protocol_failure (Program.Missing_operand _) -> true | _ -> false)
           report.V.issues);
      check_bool (name ^ ": simulator raises") true
        (match
           Mimd_sim.Exec.run ~program:broken ~links:(Mimd_sim.Links.fixed 2) ()
         with
        | _ -> false
        | exception Failure _ -> true))
    [ ("ewf p=2", W.Elliptic.graph (), 2); ("fig1 p=4", W.Fig1.graph (), 4) ]

let test_protocol_stray_peer_reported () =
  (* A peer index outside [0, processors) is a structured issue, not an
     exception, whichever end of a message names it. *)
  let program = From_schedule.run (full_of ~k:0 (fig7 ())).Full_sched.schedule in
  List.iter
    (fun stray ->
      let retarget =
        List.map (function
          | Program.Send { tag; _ } -> Program.Send { tag; dst = stray }
          | Program.Recv { tag; _ } -> Program.Recv { tag; src = stray }
          | instr -> instr)
      in
      let broken = Program.of_instrs program.Program.graph (Array.map retarget (Program.to_instrs program)) in
      let report = V.program broken in
      check_bool (Printf.sprintf "peer %d reported" stray) false (V.ok report))
    [ -1; program.Program.processors; 7 ]

let test_protocol_capacity_guard () =
  let program = From_schedule.run (full_of (fig7 ())).Full_sched.schedule in
  check_bool "capacity 0 rejected" true
    (match V.program ~capacity:0 program with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------------------------------------------------------------- *)
(* The in-layer codegen check                                        *)

(* [From_schedule.run ~validate:true] runs the in-layer
   [Program.check] itself, with nothing installed first.  Codegen pairs
   every Send with its Recv by construction, so no schedule
   [Schedule.make] accepts makes it raise: the clean path must return
   the program unchanged, and the check it runs must reject fig7's
   program with one Recv dropped. *)
let test_codegen_validate_runs_check () =
  let sched = (full_of (fig7 ())).Full_sched.schedule in
  let program = From_schedule.run sched in
  check_bool "validated program unchanged" true
    (From_schedule.run ~validate:true sched = program);
  let dropped = ref false in
  let programs =
    Array.map
      (List.filter (function
        | Program.Recv _ when not !dropped ->
          dropped := true;
          false
        | _ -> true))
      (Program.to_instrs program)
  in
  check_bool "a recv was dropped" true !dropped;
  check_bool "Program.check rejects the dropped recv" true
    (Program.check (Program.of_instrs program.Program.graph programs) <> [])

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
      }
  with
  | F.Passed n -> check_int "all cases ran" 25 n
  | F.Failed { reason; case; _ } ->
    Alcotest.failf "sound pipeline failed fuzz: %s\n%s" reason (F.render_case case)

let test_fanout_full_oracle () =
  (* Comm-opt x the compiled runtime: a fan-out loop (diamond
     dependences, so comm-opt has sends to elide and frames to pack)
     through every check, the domain leg in-process. *)
  let case =
    F.make_case
      ~loop:(W.Random_loop.generate_loop ~fanout:0.6 ~seed:4 ())
      ~processors:3 ~comm:2 ~iterations:11
  in
  match F.check_case ~runtime:true case with
  | Ok _ -> ()
  | Error reason ->
    Alcotest.failf "fan-out case failed the full oracle: %s\n%s" reason
      (F.render_case case)

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
      }
  with
  | F.Passed _ -> ()
  | F.Failed { reason; _ } -> Alcotest.failf "runtime differential fuzz: %s" reason

(* A dumped case read back; any load error fails the test. *)
let load_case path =
  match F.load_case path with Ok case -> case | Error e -> Alcotest.fail e

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
    let replayed = load_case path in
    check_int "processors survive the round trip" case.F.processors replayed.F.processors;
    check_int "comm survives the round trip" case.F.comm replayed.F.comm;
    check_int "iterations survive the round trip" case.F.iterations replayed.F.iterations;
    check_string "loop source survives the round trip"
      (Format.asprintf "%a" Mimd_loop_ir.Ast.pp_loop case.F.loop)
      (Format.asprintf "%a" Mimd_loop_ir.Ast.pp_loop replayed.F.loop);
    (* ... and replaying it under the same fault fails again *)
    check_bool "replay reproduces the failure" true
      (Result.is_error (F.check_case ~fault:F.Hasten_dependent ~runtime:false replayed));
    (* without the fault the pipeline is sound on this loop *)
    check_bool "replay without fault is clean" true
      (Result.is_ok (F.check_case ~runtime:false replayed));
    Sys.remove path

let test_dump_creates_directory () =
  (* A fault-injected run asked to dump into a directory that does not
     exist yet must create it (parents too) rather than lose the
     counterexample. *)
  let root =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mimd-check-dump-%d" (Unix.getpid ()))
  in
  let dir = Filename.concat (Filename.concat root "a") "b" in
  check_bool "directory absent before the run" false (Sys.file_exists root);
  let cfg =
    { F.default_config with count = 10; seed = 42; fault = F.Hasten_dependent; runtime = false }
  in
  (match F.run { cfg with out_dir = Some dir } with
  | F.Passed _ -> Alcotest.fail "injected dependence violations went undetected"
  | F.Failed { file = None; reason; _ } -> Alcotest.failf "no counterexample dumped: %s" reason
  | F.Failed { file = Some path; _ } ->
    check_string "dumped under the requested directory" dir (Filename.dirname path);
    check_bool "replayable" true
      (Result.is_error
         (F.check_case ~fault:F.Hasten_dependent ~runtime:false (load_case path)));
    Sys.remove path);
  List.iter Sys.rmdir [ dir; Filename.dirname dir; root ];
  (* An unwritable target is reported, not raised. *)
  let blocker = Filename.temp_file "mimd-check-blocker" "" in
  Fun.protect ~finally:(fun () -> Sys.remove blocker) (fun () ->
      match F.run { cfg with out_dir = Some (Filename.concat blocker "sub") } with
      | F.Passed _ -> Alcotest.fail "injected dependence violations went undetected"
      | F.Failed { file; reason; _ } ->
        check_bool "nothing dumped" true (file = None);
        let needle = "counterexample not dumped" in
        let n = String.length needle in
        let rec found i =
          i + n <= String.length reason && (String.sub reason i n = needle || found (i + 1))
        in
        check_bool "reason says why" true (found 0))

let test_case_file_round_trip () =
  let case =
    {
      (F.make_case ~loop:(W.Random_loop.generate_loop ~seed:7 ()) ~processors:3 ~comm:1
         ~iterations:9)
      with
      window = 6;
      transport = F.Tcp;
    }
  in
  let dir = Filename.get_temp_dir_name () in
  let name = Printf.sprintf "mimd-check-roundtrip-%d.loop" (Unix.getpid ()) in
  let path = F.dump_case ~name ~dir ~reason:"round trip" case in
  let text = In_channel.with_open_text path In_channel.input_all in
  let back = load_case path in
  Sys.remove path;
  check_bool "no oracle header written" false
    (List.exists
       (String.starts_with ~prefix:"# oracle:")
       (String.split_on_char '\n' text));
  check_int "processors" case.F.processors back.F.processors;
  check_int "comm" case.F.comm back.F.comm;
  check_int "iterations" case.F.iterations back.F.iterations;
  check_int "window" case.F.window back.F.window;
  check_bool "transport" true (case.F.transport = back.F.transport);
  check_string "loop"
    (Format.asprintf "%a" Mimd_loop_ir.Ast.pp_loop case.F.loop)
    (Format.asprintf "%a" Mimd_loop_ir.Ast.pp_loop back.F.loop)

(* Replay headers: dumps written before the oracles merged carry an
   [# oracle: pipeline|comm|exec] header; every such file replays
   through the one oracle.  Any other oracle name is an error naming
   it, never a silent fallback. *)
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

let test_legacy_oracle_headers_replay () =
  List.iter
    (fun oracle ->
      with_case_file ~tag:(oracle ^ "-oracle") ("oracle: " ^ oracle) (fun path ->
          let case = load_case path in
          check_int (oracle ^ ": other headers still read") 6 case.F.iterations;
          check_bool (oracle ^ ": replays clean through the one oracle") true
            (Result.is_ok (F.check_case ~runtime:false case))))
    [ "exec"; "comm"; "pipeline" ]

let test_unknown_oracle_rejected () =
  with_case_file ~tag:"bogus-oracle" "oracle: bogus" (fun path ->
      match F.load_case path with
      | Ok _ -> Alcotest.fail "unknown oracle header was accepted"
      | Error m ->
        check_string "error names the unknown oracle"
          (Printf.sprintf "%s: unknown fuzz oracle \"bogus\"" path)
          m)

(* Every header that is present must parse; a malformed one is an
   error naming it, never a silent default. *)
let test_malformed_headers_rejected () =
  List.iter
    (fun (header, expected) ->
      with_case_file ~tag:"bad-header" header (fun path ->
          match F.load_case path with
          | Ok _ -> Alcotest.failf "\"# %s\" was accepted" header
          | Error m ->
            check_string ("error names " ^ header)
              (Printf.sprintf "%s: bad \"# %s\" header (expected %s)" path header expected)
              m))
    [
      ("processors: two", "an integer >= 1");
      ("processors: 0", "an integer >= 1");
      ("comm: -1", "an integer >= 0");
      ("iterations: ten", "an integer >= 1");
      ("window: -2", "an integer >= 0");
      ("window: wide", "an integer >= 0");
      ("transport: udp", "unix or tcp");
    ]

(* A dump written before cases drew their window and transport
   replays with the window every case used then and Unix sockets. *)
let test_headerless_dump_defaults () =
  with_case_file ~tag:"old-dump" "reason: an older dump" (fun path ->
      let case = load_case path in
      check_int "iterations read" 6 case.F.iterations;
      check_int "window = 1 + iterations mod 4" 3 case.F.window;
      check_bool "Unix sockets" true (case.F.transport = F.Unix_sockets))

(* The one unwinding check: a distance-2 loop is the oracle's error
   with the executors' message, not an exception from the lowering. *)
let test_check_case_needs_unwinding () =
  let case = load_case (Filename.concat ".." (Filename.concat "examples" "loops/iir2.loop")) in
  let expected =
    match Mimd_runtime.Lower.check_distances (Mimd_loop_ir.Depend.analyze case.F.loop).graph with
    | Error m -> m
    | Ok () -> Alcotest.fail "iir2 has a distance-2 dependence"
  in
  match F.check_case ~runtime:false case with
  | Ok _ -> Alcotest.fail "iir2 passed the oracle without unwinding"
  | Error m -> check_string "the unwinding message" expected m

(* The one audited compile: each fault is caught at its own stage, the
   rewrite runs only with a window, and a loop that needs unwinding
   compiles (only the executors need distances 0 and 1). *)
let test_compile_audits_each_stage () =
  let compile ?fault ?window graph =
    F.compile ?fault ?window ~graph ~machine:(machine ()) ~iterations:20 ()
  in
  (match compile (fig7 ()) with
  | Ok c -> check_bool "no window, no rewrite" true (c.F.optimized = None)
  | Error e -> Alcotest.failf "fig7 rejected: %s" e);
  (match compile ~window:4 (fig7 ()) with
  | Ok c -> check_bool "window: rewrite" true (c.F.optimized <> None)
  | Error e -> Alcotest.failf "fig7 with comm-opt rejected: %s" e);
  check_bool "hastened dependence rejected" true
    (Result.is_error (compile ~fault:F.Hasten_dependent (fig7 ())));
  (match compile ~fault:F.Keep_extra_send ~window:4 (fig7 ()) with
  | Ok _ -> Alcotest.fail "kept extra send accepted"
  | Error e ->
    check_bool "named as the rewrite's rejection" true
      (String.starts_with ~prefix:"optimized program rejected: " e));
  let iir2 = load_case (Filename.concat ".." (Filename.concat "examples" "loops/iir2.loop")) in
  check_bool "iir2 compiles unwound" true
    (Result.is_ok (compile ~window:4 (Mimd_loop_ir.Depend.analyze iir2.F.loop).graph))

(* The cases [check --fuzz 450 --fuzz-seed 42] draws (QCheck draws
   them one at a time from the seeded state) cover both transports,
   long runs and every coalescing window. *)
let test_fuzz_draws_cover_shapes () =
  let rand = Random.State.make [| 42 |] in
  let cases = List.init 450 (fun _ -> QCheck2.Gen.generate1 ~rand F.gen_case) in
  let count p = List.length (List.filter p cases) in
  check_bool "some cases over Unix sockets" true
    (count (fun c -> c.F.transport = F.Unix_sockets) > 0);
  check_bool "some cases over TCP" true (count (fun c -> c.F.transport = F.Tcp) > 0);
  check_bool "some cases at n >= 100" true (count (fun c -> c.F.iterations >= 100) > 0);
  List.iter
    (fun w ->
      check_bool (Printf.sprintf "some case at window %d" w) true
        (count (fun c -> c.F.window = w) > 0))
    [ 0; 1; 2; 3; 4; 5; 6 ]

(* Dumps of cases priced with the deleted per-link matrix carry a
   [# matrix: yes] header; replaying them on the uniform machine would
   check a different case, so loading one is an error naming it. *)
let test_matrix_header_rejected () =
  with_case_file ~tag:"matrix-header" "matrix: yes" (fun path ->
      match F.load_case path with
      | Ok _ -> Alcotest.fail "matrix header was accepted"
      | Error m ->
        check_bool "error names the matrix header" true
          (String.starts_with ~prefix:(path ^ ": \"# matrix: yes\" header") m))

(* Dumped counterexamples must stay replayable for arbitrary generated
   loops, not just the ones a particular failure happens to produce. *)
let prop_case_files_replayable =
  qtest ~count:60 "check: case files round-trip through disk"
    QCheck2.Gen.(int_range 1 1_000_000)
    string_of_int
    (fun seed ->
      let case =
        {
          (F.make_case ~loop:(W.Random_loop.generate_loop ~seed ()) ~processors:(2 + (seed mod 3))
             ~comm:(seed mod 3) ~iterations:(4 + (seed mod 9)))
          with
          window = seed mod 7;
          transport = (if seed mod 2 = 0 then F.Unix_sockets else F.Tcp);
        }
      in
      let dir = Filename.get_temp_dir_name () in
      let name = Printf.sprintf "mimd-check-prop-%d-%d.loop" (Unix.getpid ()) seed in
      let path = F.dump_case ~name ~dir ~reason:"prop" case in
      let back = load_case path in
      Sys.remove path;
      back.F.processors = case.F.processors
      && back.F.comm = case.F.comm
      && back.F.iterations = case.F.iterations
      && back.F.window = case.F.window
      && back.F.transport = case.F.transport
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
    Alcotest.test_case "validator: missing operand detected" `Quick
      test_protocol_missing_operand_detected;
    Alcotest.test_case "validator: stray peer reported" `Quick test_protocol_stray_peer_reported;
    Alcotest.test_case "validator: codegen ~validate checks" `Quick
      test_codegen_validate_runs_check;
    Alcotest.test_case "fuzz: sound pipeline passes" `Quick test_fuzz_passes_on_sound_pipeline;
    Alcotest.test_case "fuzz: runtime differential smoke" `Quick
      test_fuzz_runtime_differential_smoke;
    Alcotest.test_case "fuzz: injected violation caught (negative)" `Quick
      test_fuzz_catches_injected_violation;
    Alcotest.test_case "fuzz: case file round trip" `Quick test_case_file_round_trip;
    Alcotest.test_case "fuzz: fan-out through the full oracle" `Quick
      test_fanout_full_oracle;
    Alcotest.test_case "fuzz: dump into a fresh nested directory" `Quick
      test_dump_creates_directory;
    Alcotest.test_case "fuzz: exec oracle header replays as a plain case" `Quick
      test_legacy_oracle_headers_replay;
    Alcotest.test_case "fuzz: unknown oracle header rejected" `Quick
      test_unknown_oracle_rejected;
    Alcotest.test_case "fuzz: matrix header rejected" `Quick test_matrix_header_rejected;
    Alcotest.test_case "fuzz: malformed headers rejected" `Quick
      test_malformed_headers_rejected;
    Alcotest.test_case "fuzz: dump without window/transport headers" `Quick
      test_headerless_dump_defaults;
    Alcotest.test_case "fuzz: check_case on iir2 needs unwinding" `Quick
      test_check_case_needs_unwinding;
    Alcotest.test_case "fuzz: compile audits each stage" `Quick test_compile_audits_each_stage;
    Alcotest.test_case "fuzz: draws both transports and n >= 100" `Quick
      test_fuzz_draws_cover_shapes;
    prop_case_files_replayable;
    Alcotest.test_case "validator: counters pinned at n=1000" `Quick test_counters_pinned;
    Alcotest.test_case "validator: minor words bounded" `Quick test_validate_minor_words;
    Alcotest.test_case "validator: overlap far from cycle 0" `Quick
      test_overlap_far_from_cycle_zero;
    Alcotest.test_case "validator: overlaps on disjoint busy ranges" `Quick
      test_overlap_disjoint_busy_ranges;
  ]
