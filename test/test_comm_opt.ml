(* The synchronization-minimizing rewrite (Comm_opt): transitive
   elision with value forwarding, coalescing guarded by a
   happens-before cycle check, and the differential guarantees both
   rely on. *)

open Helpers
module Depend = Mimd_loop_ir.Depend
module Program = Mimd_codegen.Program
module From_schedule = Mimd_codegen.From_schedule
module Comm_opt = Mimd_codegen.Comm_opt
module Interp = Mimd_loop_ir.Interp
module Value_run = Mimd_runtime.Value_run
module Exec_compiled = Mimd_runtime.Exec_compiled
module Links = Mimd_sim.Links
module Validate = Mimd_check.Validate
module Random_loop = Mimd_workloads.Random_loop

(* The independent protocol audit of a (rewritten) program. *)
let audit (p : Program.t) = Validate.error_of ~names:(Graph.name p.graph) (Validate.program p)

let tag node iter = { Program.node; iter }

(* ------------------------------------------------------------------ *)
(* Hand-built programs: elision corner cases with exact expectations. *)

(* Diamond a -> {b, c}, b -> c spread over three processors: the direct
   a->P2 message is transitively implied by a->P1 composed with b->P2,
   so it is elided and a's value rides b's frame. *)
let test_diamond_elision_through_third_processor () =
  let graph =
    graph_of ~latencies:[| 1; 1; 1 |] ~edges:[ (0, 1, 0); (0, 2, 0); (1, 2, 0) ]
  in
  let programs =
    [|
      [
        Program.Compute { node = 0; iter = 0 };
        Program.Send { tag = tag 0 0; dst = 1 };
        Program.Send { tag = tag 0 0; dst = 2 };
      ];
      [
        Program.Recv { tag = tag 0 0; src = 0 };
        Program.Compute { node = 1; iter = 0 };
        Program.Send { tag = tag 1 0; dst = 2 };
      ];
      [
        Program.Recv { tag = tag 0 0; src = 0 };
        Program.Recv { tag = tag 1 0; src = 1 };
        Program.Compute { node = 2; iter = 0 };
      ];
    |]
  in
  let p = Program.of_instrs graph programs in
  check_bool "input well-formed" true (Program.check p = []);
  let opt, stats = Comm_opt.run ~window:0 p in
  check_int "elided" 1 stats.Comm_opt.elided;
  check_int "messages before" 3 stats.Comm_opt.messages_before;
  check_int "messages after" 2 stats.Comm_opt.messages_after;
  check_int "forwarded values" 1 stats.Comm_opt.forwarded_values;
  check_bool "optimized well-formed" true (Program.check opt = []);
  (match (Program.to_instrs opt).(1) with
  | [ Program.Recv _; Program.Compute _; Program.Send_pack { tags; dst = 2 } ]
    ->
    check_bool "b's frame carries a as extra" true (tags = [ tag 1 0; tag 0 0 ])
  | _ -> Alcotest.fail "P1 should end with a Send_pack carrying the extra");
  match (Program.to_instrs opt).(2) with
  | [ Program.Recv_pack { tags; src = 1 }; Program.Compute _ ] ->
    check_bool "P2 lands both values in one frame" true
      (tags = [ tag 1 0; tag 0 0 ])
  | _ -> Alcotest.fail "P2 should open with the matching Recv_pack"

(* Two messages on the same link: the earlier one is elided because the
   later one's frame still lands its value before the first (and only)
   use — this exercises the first-use bound, which is strictly weaker
   than requiring arrival by the original Recv position. *)
let test_same_link_forwarding_uses_first_use_bound () =
  let graph =
    graph_of ~latencies:[| 1; 1; 1 |] ~edges:[ (0, 2, 0); (1, 2, 0) ]
  in
  let programs =
    [|
      [
        Program.Compute { node = 0; iter = 0 };
        Program.Send { tag = tag 0 0; dst = 1 };
        Program.Compute { node = 1; iter = 0 };
        Program.Send { tag = tag 1 0; dst = 1 };
      ];
      [
        Program.Recv { tag = tag 0 0; src = 0 };
        Program.Recv { tag = tag 1 0; src = 0 };
        Program.Compute { node = 2; iter = 0 };
      ];
    |]
  in
  let p = Program.of_instrs graph programs in
  check_bool "input well-formed" true (Program.check p = []);
  let opt, stats = Comm_opt.run ~window:0 p in
  check_int "elided" 1 stats.Comm_opt.elided;
  check_int "messages after" 1 stats.Comm_opt.messages_after;
  check_bool "optimized well-formed" true (Program.check opt = []);
  match (Program.to_instrs opt).(1) with
  | [ Program.Recv_pack { tags; src = 0 }; Program.Compute _ ] ->
    check_bool "frame lands both values" true (tags = [ tag 1 0; tag 0 0 ])
  | _ -> Alcotest.fail "P1 should land both values via one Recv_pack"

(* Same shape, but the consumer uses the first value before the only
   candidate carrier arrives: elision must refuse. *)
let test_elision_refused_when_value_would_arrive_late () =
  let graph =
    graph_of ~latencies:[| 1; 1; 1; 1 |]
      ~edges:[ (0, 2, 0); (1, 3, 0); (2, 3, 0) ]
  in
  let programs =
    [|
      [
        Program.Compute { node = 0; iter = 0 };
        Program.Send { tag = tag 0 0; dst = 1 };
        Program.Compute { node = 1; iter = 0 };
        Program.Send { tag = tag 1 0; dst = 1 };
      ];
      [
        Program.Recv { tag = tag 0 0; src = 0 };
        Program.Compute { node = 2; iter = 0 };
        Program.Recv { tag = tag 1 0; src = 0 };
        Program.Compute { node = 3; iter = 0 };
      ];
    |]
  in
  let p = Program.of_instrs graph programs in
  check_bool "input well-formed" true (Program.check p = []);
  let opt, stats = Comm_opt.run ~window:0 p in
  check_int "nothing elided" 0 stats.Comm_opt.elided;
  check_int "messages unchanged" 2 stats.Comm_opt.messages_after;
  check_bool "optimized well-formed" true (Program.check opt = [])

(* Ping-pong a -> b (distance 0), b -> a (distance 1) over two
   processors: P0 sends a0, waits for b0, computes and sends a1.  At
   window 2 the two P0->P1 messages are merge candidates, but the merged
   frame would leave P0 at a1's Send while P1 blocks at the merged Recv
   before it can send b0 — a happens-before cycle.  The merge must be
   refused and both frames kept. *)
let test_coalesce_refuses_deadlocking_merge () =
  let graph = two_cycle () in
  let programs =
    [|
      [
        Program.Compute { node = 0; iter = 0 };
        Program.Send { tag = tag 0 0; dst = 1 };
        Program.Recv { tag = tag 1 0; src = 1 };
        Program.Compute { node = 0; iter = 1 };
        Program.Send { tag = tag 0 1; dst = 1 };
      ];
      [
        Program.Recv { tag = tag 0 0; src = 0 };
        Program.Compute { node = 1; iter = 0 };
        Program.Send { tag = tag 1 0; dst = 0 };
        Program.Recv { tag = tag 0 1; src = 0 };
        Program.Compute { node = 1; iter = 1 };
      ];
    |]
  in
  let p = Program.of_instrs graph programs in
  check_bool "input well-formed" true (Program.check p = []);
  let opt, stats = Comm_opt.run ~window:2 p in
  check_int "nothing coalesced" 0 stats.Comm_opt.coalesced;
  check_int "nothing elided" 0 stats.Comm_opt.elided;
  check_int "messages unchanged" 3 stats.Comm_opt.messages_after;
  check_bool "P0 keeps both frames to P1 separate" true
    ((Program.to_instrs opt).(0) = programs.(0));
  check_bool "P1 keeps both receives separate" true
    ((Program.to_instrs opt).(1) = programs.(1));
  check_bool "validator accepts (simulation drains)" true
    (audit opt = Ok ())

(* ------------------------------------------------------------------ *)
(* Full-pipeline cases: loop -> schedule -> program -> Comm_opt, with
   value identity as the ground truth. *)

let front_end src =
  let a = Depend.analyze_string src in
  (a.Depend.loop, a.Depend.graph)

let compile ?(p = 2) ?(k = 2) ~iterations src =
  let flat, graph = front_end src in
  let machine = machine ~p ~k () in
  let schedule =
    Mimd_core.Cyclic_sched.schedule_iterations ~graph ~machine ~iterations ()
  in
  (flat, From_schedule.run schedule)

let assert_value_identical ~loop ~iterations base opt =
  let run program = Exec_compiled.run_inline ~loop ~program () in
  let run_base = run base and run_opt = run opt in
  check_bool "optimized = unoptimized, bitwise" true
    (Value_run.same_values run_base run_opt);
  let spec = Value_run.spec ~loop ~iterations in
  match
    Result.bind (Value_run.check_instances ~spec run_opt.Value_run.instances) (fun () ->
        Value_run.check_against_sequential ~loop ~iterations run_opt)
  with
  | Ok () -> ()
  | Error e -> Alcotest.failf "optimized vs sequential: %s" e

(* fig7's steady-state pattern repeats every two iterations; a window
   of 2 coalesces across the pattern boundary (the wrap-around case)
   and the merged programs must still be value-identical. *)
let test_fig7_coalesces_across_pattern_boundary () =
  let iterations = 20 in
  let loop, program = compile ~iterations Mimd_workloads.Fig7.source in
  let opt, stats = Comm_opt.run ~window:2 program in
  check_bool "messages reduced" true
    (stats.Comm_opt.messages_after < stats.Comm_opt.messages_before);
  check_bool "validator accepts" true (audit opt = Ok ());
  assert_value_identical ~loop ~iterations program opt

let test_window_boundaries () =
  let iterations = 30 in
  let _, program = compile ~iterations Mimd_workloads.Fig1.source in
  let base = Comm_opt.messages program in
  let _, s0 = Comm_opt.run ~window:0 program in
  check_int "window 0 disables coalescing" 0 s0.Comm_opt.coalesced;
  let opt1, s1 = Comm_opt.run ~window:1 program in
  let opt4, s4 = Comm_opt.run ~window:4 program in
  check_bool "window 1 reduces" true (s1.Comm_opt.messages_after < base);
  check_bool "window 4 reduces further" true
    (s4.Comm_opt.messages_after < s1.Comm_opt.messages_after);
  check_bool "validator accepts w=1" true (audit opt1 = Ok ());
  check_bool "validator accepts w=4" true (audit opt4 = Ok ())

(* The headline claim on the paper's loops: after the full pipeline
   (unwind, classify, Cyclic and Flow scheduling) at p=2, k=2, n=60,
   window 4 must cut messages by at least 20% and the rewritten
   program must still validate.  The counts today are
   ewf 353 -> 59 and fig1 240 -> 45; the CI comm-opt golden pins them
   exactly, this pins the claim. *)
let test_message_reduction_on_paper_loops () =
  List.iter
    (fun (name, src) ->
      let _, graph = front_end src in
      let full =
        Mimd_core.Full_sched.run ~graph ~machine:(machine ~p:2 ~k:2 ()) ~iterations:60 ()
      in
      let program = From_schedule.run full.Mimd_core.Full_sched.schedule in
      let opt, stats = Comm_opt.run ~window:4 program in
      let before = stats.Comm_opt.messages_before and after = stats.Comm_opt.messages_after in
      check_bool
        (Printf.sprintf "%s: messages %d -> %d cut by >= 20%%" name before after)
        true
        (float_of_int after <= 0.8 *. float_of_int before);
      match audit opt with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: optimized program rejected: %s" name e)
    [ ("ewf", Mimd_workloads.Elliptic.source); ("fig1", Mimd_workloads.Fig1.source) ]

(* The happens-before search's work, pinned exactly: a query examines
   each message at most once, so a return to whole-list sweeps (or a
   lost scan stop) moves these counts on any host.  ewf and fig1 at
   p=2, k=2, n=120, window 4. *)
let test_search_work_pinned () =
  List.iter
    (fun (name, src, want) ->
      let _, graph = front_end src in
      let full =
        Mimd_core.Full_sched.run ~graph ~machine:(machine ~p:2 ~k:2 ()) ~iterations:120 ()
      in
      let program = From_schedule.run full.Mimd_core.Full_sched.schedule in
      let _, stats = Comm_opt.run ~window:4 program in
      check_int (name ^ ": messages examined") want stats.Comm_opt.examined)
    [
      ("ewf", Mimd_workloads.Elliptic.source, 400093);
      ("fig1", Mimd_workloads.Fig1.source, 43740);
    ]

(* Structural availability: in the optimized program every Compute's
   operand instance is present locally — computed earlier on the same
   processor or landed by an earlier Recv/Recv_pack.  This is the
   invariant elision's first-use bound must preserve. *)
let assert_values_available_in_time (p : Program.t) =
  Array.iter
    (fun instrs ->
      let have = Hashtbl.create 64 in
      let land_tag (t : Program.tag) =
        Hashtbl.replace have (t.Program.node, t.iter) ()
      in
      List.iter
        (function
          | Program.Recv { tag; _ } -> land_tag tag
          | Program.Recv_pack { tags; _ } -> List.iter land_tag tags
          | Program.Compute { node; iter } ->
            List.iter
              (fun (e : Mimd_ddg.Graph.edge) ->
                let pi = iter - e.distance in
                if pi >= 0 then
                  check_bool "operand available before use" true
                    (Hashtbl.mem have (e.src, pi)))
              (Mimd_ddg.Graph.preds p.Program.graph node);
            Hashtbl.replace have (node, iter) ()
          | Program.Send _ | Program.Send_pack _ -> ())
        instrs)
    (Program.to_instrs p)

let test_values_available_in_time () =
  List.iter
    (fun (src, p) ->
      let _, program = compile ~p ~iterations:24 src in
      let opt, _ = Comm_opt.run ~window:4 program in
      assert_values_available_in_time opt)
    [
      (Mimd_workloads.Fig1.source, 2);
      (Mimd_workloads.Fig1.source, 4);
      (Mimd_workloads.Fig7.source, 2);
      (Mimd_workloads.Elliptic.source, 2);
    ]

let test_keep_extra_send_fault_is_caught () =
  let _, program = compile ~iterations:10 Mimd_workloads.Fig7.source in
  let opt, _ = Comm_opt.run ~window:2 ~fault:Comm_opt.Keep_extra_send program in
  check_bool "validator rejects the faulty program" true
    (audit opt <> Ok ());
  check_bool "Program.check flags it too" true (Program.check opt <> [])

(* ------------------------------------------------------------------ *)
(* Properties over random fan-out loops: every elided ordering stays
   implied (the optimized program validates, values are identical). *)

let test_random_fanout_loops_differential () =
  let total_elided = ref 0 in
  let exercised = ref 0 in
  for seed = 1 to 12 do
    let loop = Random_loop.generate_loop ~max_stmts:8 ~fanout:0.7 ~seed () in
    let iterations = 10 in
    let graph = (Depend.analyze loop).Depend.graph in
    let machine = machine ~p:3 ~k:1 () in
    let schedule =
      Mimd_core.Cyclic_sched.schedule_iterations ~graph ~machine ~iterations ()
    in
    let program = From_schedule.run schedule in
    if Comm_opt.messages program > 0 then begin
      incr exercised;
      let opt, stats = Comm_opt.run ~window:3 program in
      total_elided := !total_elided + stats.Comm_opt.elided;
      (match audit opt with
      | Ok () -> ()
      | Error e -> Alcotest.failf "seed %d: validator rejected: %s" seed e);
      assert_value_identical ~loop ~iterations program opt
    end
  done;
  check_bool "fan-out corpus exercises messages" true (!exercised >= 6)

(* The fanout knob itself: a biased generator must produce strictly
   denser dependence graphs than the chain-only default, and the
   default must not disturb existing seeds (no extra PRNG draws). *)
let test_fanout_distribution () =
  let edges fanout =
    let total = ref 0 in
    for seed = 1 to 30 do
      let loop = Random_loop.generate_loop ~max_stmts:8 ~fanout ~seed () in
      total := !total + Mimd_ddg.Graph.edge_count (Depend.analyze loop).Depend.graph
    done;
    !total
  in
  check_bool "fanout 0.75 densifies the DDG" true (edges 0.75 > edges 0.0);
  for seed = 1 to 10 do
    check_bool "fanout 0.0 is the unbiased generator" true
      (Random_loop.generate_loop ~fanout:0.0 ~seed ()
      = Random_loop.generate_loop ~seed ())
  done;
  check_bool "fanout outside [0,1] rejected" true
    (match Random_loop.generate_loop ~fanout:1.5 ~seed:1 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* A small sim-only sweep of the fuzz oracle, whose every case runs
   comm-opt (the CI runs the full one with the runtime legs). *)
let test_comm_fuzz_smoke () =
  let module F = Mimd_check.Fuzz in
  match
    F.run
      {
        count = 25;
        seed = 77;
        fault = F.No_fault;
        runtime = false;
        out_dir = None;
      }
  with
  | F.Passed n -> check_int "cases" 25 n
  | F.Failed { reason; _ } -> Alcotest.failf "comm fuzz failed: %s" reason

let suite =
  [
    Alcotest.test_case "diamond: elide through third processor" `Quick
      test_diamond_elision_through_third_processor;
    Alcotest.test_case "same link: first-use bound forwards" `Quick
      test_same_link_forwarding_uses_first_use_bound;
    Alcotest.test_case "late arrival refused" `Quick
      test_elision_refused_when_value_would_arrive_late;
    Alcotest.test_case "coalescing refuses a deadlocking merge" `Quick
      test_coalesce_refuses_deadlocking_merge;
    Alcotest.test_case "fig7: coalesce across pattern boundary" `Quick
      test_fig7_coalesces_across_pattern_boundary;
    Alcotest.test_case "window boundaries" `Quick test_window_boundaries;
    Alcotest.test_case "ewf and fig1: messages cut by >= 20%" `Quick
      test_message_reduction_on_paper_loops;
    Alcotest.test_case "search work pinned (ewf, fig1 n120)" `Quick test_search_work_pinned;
    Alcotest.test_case "values available in time" `Quick
      test_values_available_in_time;
    Alcotest.test_case "keep-extra-send fault caught" `Quick
      test_keep_extra_send_fault_is_caught;
    Alcotest.test_case "random fan-out loops differential" `Slow
      test_random_fanout_loops_differential;
    Alcotest.test_case "fanout distribution" `Quick test_fanout_distribution;
    Alcotest.test_case "comm fuzz smoke (sim-only)" `Slow test_comm_fuzz_smoke;
  ]
