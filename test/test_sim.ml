open Helpers
module Graph = Mimd_ddg.Graph
module Schedule = Mimd_core.Schedule
module Cyclic_sched = Mimd_core.Cyclic_sched
module Program = Mimd_codegen.Program
module Links = Mimd_sim.Links
module Exec = Mimd_sim.Exec

let fig7_sched ?(p = 2) ?(iterations = 30) () =
  Cyclic_sched.schedule_iterations ~graph:(fig7 ()) ~machine:(machine ~p ()) ~iterations ()

(* ---------------------------------------------------------------- *)
(* Links                                                             *)

let test_links_fixed () =
  let l = Links.fixed 3 in
  for _ = 1 to 10 do
    check_int "fixed" 3 (Links.sample l ~src:0 ~dst:1)
  done

let test_links_uniform_range () =
  let l = Links.uniform ~base:3 ~mm:3 ~seed:1 in
  for _ = 1 to 200 do
    let x = Links.sample l ~src:0 ~dst:1 in
    check_bool "in [3,5]" true (x >= 3 && x <= 5)
  done

let test_links_per_link_independent () =
  (* Two links from the same master seed produce different streams but
     each is reproducible. *)
  let l1 = Links.uniform ~base:0 ~mm:100 ~seed:7 in
  let l2 = Links.uniform ~base:0 ~mm:100 ~seed:7 in
  let a = List.init 20 (fun _ -> Links.sample l1 ~src:0 ~dst:1) in
  let b = List.init 20 (fun _ -> Links.sample l2 ~src:0 ~dst:1) in
  check_bool "same link reproducible" true (a = b);
  let c = List.init 20 (fun _ -> Links.sample l1 ~src:1 ~dst:0) in
  check_bool "different links differ" true (a <> c)

let test_links_describe () =
  check_string "uniform" "uniform[3,5]" (Links.describe (Links.uniform ~base:3 ~mm:3 ~seed:0))

(* ---------------------------------------------------------------- *)
(* Exec                                                              *)

let test_sim_matches_static_makespan () =
  (* The greedy schedule is communication-tight under fixed k, so the
     simulated makespan equals the static one. *)
  let sched = fig7_sched () in
  let out = Exec.simulate_schedule ~schedule:sched ~links:(Links.fixed 2) () in
  check_int "exact reproduction" (Schedule.makespan sched) out.Exec.makespan

let test_sim_never_beats_dependences () =
  (* Even with free communication, the recurrence bound holds. *)
  let sched = fig7_sched ~iterations:40 () in
  let out = Exec.simulate_schedule ~schedule:sched ~links:(Links.fixed 0) () in
  check_bool "recurrence floor" true (out.Exec.makespan >= 40 * 2)

let test_sim_asap_never_slower_than_static () =
  (* The simulator executes each program ASAP, so with the assumed
     latency it can only match or beat the static schedule. *)
  let sched =
    Cyclic_sched.schedule_iterations ~graph:(Mimd_workloads.Elliptic.graph ())
      ~machine:(machine ()) ~iterations:25 ()
  in
  let out = Exec.simulate_schedule ~schedule:sched ~links:(Links.fixed 2) () in
  check_bool "sim <= static" true (out.Exec.makespan <= Schedule.makespan sched)

let test_sim_fluctuation_hurts_monotonically () =
  let sched = fig7_sched ~iterations:50 () in
  let run mm =
    if mm = 1 then (Exec.simulate_schedule ~schedule:sched ~links:(Links.fixed 2) ()).Exec.makespan
    else
      (Exec.simulate_schedule ~schedule:sched ~links:(Links.uniform ~base:2 ~mm ~seed:3) ())
        .Exec.makespan
  in
  let m1 = run 1 and m5 = run 5 in
  check_bool "mm=5 slower than mm=1" true (m5 >= m1)

let test_sim_counts_messages () =
  let sched = fig7_sched ~iterations:10 () in
  let prog = Mimd_codegen.From_schedule.run sched in
  let sends =
    Array.to_list (Program.to_instrs prog)
    |> List.concat
    |> List.filter (function Program.Send _ -> true | _ -> false)
    |> List.length
  in
  let out = Exec.run ~program:prog ~links:(Links.fixed 2) () in
  check_int "messages = sends" sends out.Exec.messages;
  check_int "comm cycles = 2 x messages" (2 * sends) out.Exec.comm_cycles

let test_sim_busy_cycles () =
  let sched = fig7_sched ~iterations:10 () in
  let out = Exec.simulate_schedule ~schedule:sched ~links:(Links.fixed 2) () in
  check_int "busy = total work" (10 * Graph.total_latency (fig7 ())) out.Exec.busy_cycles

let test_sim_deterministic () =
  let sched = fig7_sched ~iterations:40 () in
  let run () =
    (Exec.simulate_schedule ~schedule:sched ~links:(Links.uniform ~base:2 ~mm:5 ~seed:11) ())
      .Exec.makespan
  in
  check_int "reproducible" (run ()) (run ())

let test_sim_trace () =
  let sched = fig7_sched ~iterations:3 () in
  let out = Exec.simulate_schedule ~record:true ~schedule:sched ~links:(Links.fixed 2) () in
  check_bool "trace recorded" true (List.length out.Exec.trace > 0);
  (* Completion times are per-processor monotone. *)
  let per_proc = Hashtbl.create 4 in
  List.iter
    (fun (e : Exec.event) ->
      let last = Option.value ~default:0 (Hashtbl.find_opt per_proc e.Exec.proc) in
      check_bool "monotone per proc" true (e.Exec.time >= last);
      Hashtbl.replace per_proc e.Exec.proc e.Exec.time)
    out.Exec.trace

let test_sim_deadlock_detected () =
  let prog =
    Program.of_instrs (fig7 ())
      [|
          [ Program.Recv { tag = { node = 0; iter = 0 }; src = 1 } ];
          [ Program.Recv { tag = { node = 1; iter = 0 }; src = 0 } ];
        |]
  in
  check_bool "deadlock raised" true
    (match Exec.run ~program:prog ~links:(Links.fixed 1) () with
    | _ -> false
    | exception Exec.Deadlock _ -> true)

let test_sim_send_before_recv_ordering () =
  (* A message sent "late" (receiver reaches its recv first) still
     arrives; blocking semantics, not rendezvous. *)
  let g = graph_of ~latencies:[| 5; 1 |] ~edges:[ (0, 1, 0) ] in
  let prog =
    Program.of_instrs g
      [|
          [
            Program.Compute { node = 0; iter = 0 };
            Program.Send { tag = { node = 0; iter = 0 }; dst = 1 };
          ];
          [
            Program.Recv { tag = { node = 0; iter = 0 }; src = 0 };
            Program.Compute { node = 1; iter = 0 };
          ];
        |]
  in
  let out = Exec.run ~program:prog ~links:(Links.fixed 2) () in
  (* PE1 waits: 5 (compute) + 2 (comm) + 1 (own compute) = 8. *)
  check_int "blocking recv" 8 out.Exec.makespan

let test_sim_doacross_program_runs () =
  let g = Mimd_workloads.Cytron86.graph () in
  let d = Mimd_doacross.Doacross.analyze ~graph:g ~machine:(machine ()) () in
  let sched = Mimd_doacross.Doacross.schedule d ~iterations:10 in
  let out = Exec.simulate_schedule ~schedule:sched ~links:(Links.fixed 2) () in
  check_bool "completes" true (out.Exec.makespan > 0);
  check_bool "no slower than static" true (out.Exec.makespan <= Schedule.makespan sched)

let test_gantt_renders () =
  let sched = fig7_sched ~iterations:4 () in
  let out = Exec.simulate_schedule ~record:true ~schedule:sched ~links:(Links.fixed 2) () in
  let s =
    Mimd_sim.Gantt.render ~graph:(fig7 ()) ~processors:2 out.Exec.trace
  in
  let lines = String.split_on_char '\n' s in
  check_bool "one row per PE" true
    (List.length (List.filter (fun l -> String.length l > 3 && String.sub l 0 2 = "PE") lines) = 2);
  check_bool "mentions A0" true
    (List.exists
       (fun l ->
         let n = String.length l in
         let rec go i = i + 2 <= n && (String.sub l i 2 = "A0" || go (i + 1)) in
         go 0)
       lines)

let test_gantt_truncates () =
  let sched = fig7_sched ~iterations:50 () in
  let out = Exec.simulate_schedule ~record:true ~schedule:sched ~links:(Links.fixed 2) () in
  let s = Mimd_sim.Gantt.render ~max_cycles:30 ~graph:(fig7 ()) ~processors:2 out.Exec.trace in
  check_bool "notes truncation" true
    (let n = String.length s in
     let rec go i = i + 4 <= n && (String.sub s i 4 = "(of " || go (i + 1)) in
     go 0)

let prop_sim_reproduces_greedy_makespan =
  qtest ~count:40 "fixed-k simulation <= static makespan" gen_cyclic_graph print_graph_spec
    (fun spec ->
      let g = build_cyclic spec in
      let sched =
        Cyclic_sched.schedule_iterations ~graph:g ~machine:(machine ~p:3 ~k:2 ())
          ~iterations:10 ()
      in
      let out = Exec.simulate_schedule ~schedule:sched ~links:(Links.fixed 2) () in
      out.Exec.makespan <= Schedule.makespan sched)

let prop_sim_respects_recurrence_bound =
  qtest ~count:30 "simulation respects the recurrence bound" gen_cyclic_graph
    print_graph_spec (fun spec ->
      let g = build_cyclic spec in
      let iterations = 12 in
      let sched =
        Cyclic_sched.schedule_iterations ~graph:g ~machine:(machine ~p:4 ~k:1 ()) ~iterations ()
      in
      let out = Exec.simulate_schedule ~schedule:sched ~links:(Links.fixed 0) () in
      float_of_int out.Exec.makespan
      >= (Mimd_ddg.Reach.recurrence_bound g *. float_of_int (iterations - 1)) -. 1e-6)

(* Failure injection: randomly dropping sends must yield a clean
   deadlock report, never a hang or a silent wrong result; dropping
   nothing must leave behaviour unchanged. *)
let prop_dropped_sends_deadlock_cleanly =
  let gen =
    QCheck2.Gen.(
      let* spec = Helpers.gen_cyclic_graph in
      let* drop = int_range 0 5 in
      return (spec, drop))
  in
  Helpers.qtest ~count:40 "dropped sends deadlock cleanly" gen
    (fun (spec, drop) -> Printf.sprintf "drop=%d %s" drop (Helpers.print_graph_spec spec))
    (fun (spec, drop) ->
      let g = Helpers.build_cyclic spec in
      let sched =
        Cyclic_sched.schedule_iterations ~graph:g ~machine:(machine ~p:3 ~k:1 ())
          ~iterations:6 ()
      in
      let program = Mimd_codegen.From_schedule.run sched in
      let remaining = ref drop in
      let programs =
        Array.map
          (fun instrs ->
            List.filter
              (fun instr ->
                match instr with
                | Program.Send _ when !remaining > 0 ->
                  decr remaining;
                  false
                | _ -> true)
              instrs)
          (Program.to_instrs program)
      in
      let dropped_any = !remaining < drop in
      let broken = Program.of_instrs program.Program.graph programs in
      match Exec.run ~program:broken ~links:(Links.fixed 1) () with
      | out ->
        (* No sends existed to drop, or the dropped ones were not on
           any blocking path: execution completed. *)
        (not dropped_any) || out.Exec.makespan >= 0
      | exception Exec.Deadlock _ -> dropped_any)


(* ---------------------------------------------------------------- *)
(* Program.simulate: the one simulator                               *)

let program_of ?(p = 2) ?(k = 2) ~iterations g =
  let full = Mimd_core.Full_sched.run ~graph:g ~machine:(machine ~p ~k ()) ~iterations () in
  Mimd_codegen.From_schedule.run full.Mimd_core.Full_sched.schedule

let test_simulate_steps_pinned () =
  (* The simulator's work, pinned exactly: instructions retired plus
     parked processors woken.  An algorithmic regression in the run
     queue (spurious wake-ups, re-stepping) moves it on any host. *)
  List.iter
    (fun (name, g, p, expected) ->
      match Program.simulate (program_of ~p ~iterations:120 g) with
      | Ok out -> check_int name expected out.Program.steps
      | Error _ -> Alcotest.failf "%s: simulation failed" name)
    [
      ("ewf p=2 k=2 n=120", Mimd_workloads.Elliptic.graph (), 2, 5993);
      ("fig1 p=4 k=2 n=120", Mimd_workloads.Fig1.graph (), 4, 2793);
    ]

let frames_per_link (program : Program.t) =
  let counts = Hashtbl.create 16 in
  Array.iteri
    (fun src ->
      List.iter (function
        | Program.Send { dst; _ } | Program.Send_pack { dst; _ } ->
          Hashtbl.replace counts (src, dst)
            (1 + Option.value ~default:0 (Hashtbl.find_opt counts (src, dst)))
        | _ -> ()))
    (Program.to_instrs program);
  Hashtbl.fold (fun _ c acc -> max c acc) counts 0

(* Over random loops and their comm-opted programs: a capacity no link
   ever fills gives the unbounded result exactly, and the tightest
   capacity never raises — it drains or deadlocks cleanly whenever the
   program is feasible.  A feasible program must also survive
   [Comm_opt.run]'s own re-simulation. *)
let prop_simulate_capacity =
  let gen =
    QCheck2.Gen.(
      let* seed = int_range 1 10_000 in
      let* p = int_range 1 4 in
      let* k = int_range 0 3 in
      let* iterations = int_range 1 24 in
      return (seed, p, k, iterations))
  in
  Helpers.qtest ~count:40 "simulate: capacity bound" gen
    (fun (seed, p, k, n) -> Printf.sprintf "seed=%d p=%d k=%d n=%d" seed p k n)
    (fun (seed, p, k, iterations) ->
      let loop = Mimd_workloads.Random_loop.generate_loop ~fanout:0.5 ~seed () in
      let base = program_of ~p ~k ~iterations (Mimd_loop_ir.Depend.analyze loop).graph in
      let latency ~src ~dst = 1 + ((src + (2 * dst)) mod 3) in
      let holds program =
        let unbounded = Program.simulate ~latency ~record:true program in
        let roomy =
          Program.simulate ~capacity:(max 1 (frames_per_link program)) ~latency ~record:true
            program
        in
        unbounded = roomy
        &&
        match (unbounded, Program.simulate ~capacity:1 ~latency program) with
        | Ok _, (Ok _ | Error (Program.Stuck _)) | Error _, _ -> true
        | Ok _, Error _ -> false
      in
      holds base
      && (Result.is_error (Program.simulate base) || holds (fst (Mimd_codegen.Comm_opt.run base))))

(* The value step is an observer: over random programs (comm-opted
   ones too), at a random capacity and a fixed or random latency,
   [simulate ~step] returns exactly what [simulate] does, the step sees
   every (processor, pc) once in program order per processor, and each
   Recv is handed the payload its Send returned. *)
let prop_simulate_step_observes =
  let gen =
    QCheck2.Gen.(
      let* seed = int_range 1 10_000 in
      let* p = int_range 1 4 in
      let* k = int_range 0 3 in
      let* iterations = int_range 1 24 in
      let* capacity = oneof [ return max_int; int_range 1 4 ] in
      let* mm = int_range 1 3 in
      let* opt = bool in
      return (seed, p, k, iterations, capacity, mm, opt))
  in
  Helpers.qtest ~count:60 "simulate: a value step changes nothing" gen
    (fun (seed, p, k, n, capacity, mm, opt) ->
      Printf.sprintf "seed=%d p=%d k=%d n=%d capacity=%d mm=%d comm-opt=%b" seed p k n
        capacity mm opt)
    (fun (seed, p, k, iterations, capacity, mm, opt) ->
      let loop = Mimd_workloads.Random_loop.generate_loop ~fanout:0.5 ~seed () in
      let base = program_of ~p ~k ~iterations (Mimd_loop_ir.Depend.analyze loop).graph in
      let program = if opt then fst (Mimd_codegen.Comm_opt.run base) else base in
      (* [mm = 1]: every frame takes k cycles; otherwise a fresh
         per-link stream per run, so both runs draw alike. *)
      let latency () =
        let links = if mm = 1 then Links.fixed k else Links.uniform ~base:k ~mm ~seed in
        fun ~src ~dst -> Links.sample links ~src ~dst
      in
      let prog = Array.map Array.of_list (Program.to_instrs program) in
      let head = function
        | Program.Send { tag; _ } | Program.Recv { tag; _ } -> Some tag
        | Program.Send_pack { tags; _ } | Program.Recv_pack { tags; _ } -> List.nth_opt tags 0
        | Program.Compute _ -> None
      in
      let next_pc = Array.make (Array.length prog) 0 and ok = ref true in
      let step ~proc ~pc got =
        if pc <> next_pc.(proc) then ok := false;
        next_pc.(proc) <- pc + 1;
        match (prog.(proc).(pc), got) with
        | (Program.Send _ | Program.Send_pack _), None -> Some (proc, pc)
        | ((Program.Recv { src; _ } | Program.Recv_pack { src; _ }) as recv), Some (q, spc) ->
          (match prog.(q).(spc) with
          | (Program.Send { dst; _ } | Program.Send_pack { dst; _ }) as send ->
            if q <> src || dst <> proc || head send <> head recv then ok := false
          | _ -> ok := false);
          None
        | Program.Compute _, None -> None
        | _ -> ok := false; None
      in
      let plain = Program.simulate ~capacity ~latency:(latency ()) ~record:true program in
      let stepped = Program.simulate ~step ~capacity ~latency:(latency ()) ~record:true program in
      plain = stepped && !ok
      &&
      match plain with
      | Ok _ -> Array.for_all2 (fun n prog -> n = Array.length prog) next_pc prog
      | Error _ -> true)

let suite =
  [
    Alcotest.test_case "links: fixed" `Quick test_links_fixed;
    Alcotest.test_case "links: uniform range" `Quick test_links_uniform_range;
    Alcotest.test_case "links: per-link streams" `Quick test_links_per_link_independent;
    Alcotest.test_case "links: describe" `Quick test_links_describe;
    Alcotest.test_case "sim: reproduces static makespan" `Quick test_sim_matches_static_makespan;
    Alcotest.test_case "sim: recurrence floor" `Quick test_sim_never_beats_dependences;
    Alcotest.test_case "sim: ASAP never slower than static" `Quick test_sim_asap_never_slower_than_static;
    Alcotest.test_case "sim: fluctuation hurts" `Quick test_sim_fluctuation_hurts_monotonically;
    Alcotest.test_case "sim: message accounting" `Quick test_sim_counts_messages;
    Alcotest.test_case "sim: busy cycle accounting" `Quick test_sim_busy_cycles;
    Alcotest.test_case "sim: deterministic" `Quick test_sim_deterministic;
    Alcotest.test_case "sim: trace recording" `Quick test_sim_trace;
    Alcotest.test_case "sim: deadlock detection" `Quick test_sim_deadlock_detected;
    Alcotest.test_case "sim: blocking recv timing" `Quick test_sim_send_before_recv_ordering;
    Alcotest.test_case "sim: runs DOACROSS programs" `Quick test_sim_doacross_program_runs;
    Alcotest.test_case "simulate: step counter pinned" `Quick test_simulate_steps_pinned;
    prop_simulate_capacity;
    Alcotest.test_case "gantt: renders" `Quick test_gantt_renders;
    Alcotest.test_case "gantt: truncates" `Quick test_gantt_truncates;
    prop_sim_reproduces_greedy_makespan;
    prop_dropped_sends_deadlock_cleanly;
    prop_sim_respects_recurrence_bound;
    prop_simulate_step_observes;
  ]
