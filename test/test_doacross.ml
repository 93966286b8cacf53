open Helpers
module Graph = Mimd_ddg.Graph
module Schedule = Mimd_core.Schedule
module Doacross = Mimd_doacross.Doacross
module Reorder = Mimd_doacross.Reorder
module Dopipe = Mimd_doacross.Dopipe
module Sequential = Mimd_doacross.Sequential

let analyze ?order ?(p = 2) ?(k = 2) g = Doacross.analyze ?order ~graph:g ~machine:(machine ~p ~k ()) ()

(* ---------------------------------------------------------------- *)
(* Delay computation                                                 *)

let test_fig7_no_overlap () =
  (* Paper Figure 8(a): the (E,A) dependence forbids pipelining. *)
  let d = analyze (fig7 ()) in
  check_int "body length" 5 d.Doacross.body_length;
  check_bool "delay >= body" true (Doacross.no_overlap d);
  check_int "delay" 7 d.Doacross.delay

let test_fig7_reorder_still_no_overlap () =
  (* Paper Figure 8(b): even the optimal order gains nothing. *)
  let o = Reorder.exhaustive ~graph:(fig7 ()) ~machine:(machine ()) () in
  check_bool "complete enumeration" true o.Reorder.complete;
  check_bool "still no overlap" true (Doacross.no_overlap o.Reorder.analysis)

let test_doall_zero_delay () =
  let g = graph_of ~latencies:[| 1; 1 |] ~edges:[ (0, 1, 0) ] in
  let d = analyze g in
  check_int "no lcd, no delay" 0 d.Doacross.delay

let test_delay_formula () =
  (* 0 (lat 1) -> 1 (lat 1), lcd 1 -> 0 distance 1: with natural order,
     s(1) = 1, finish 2, sync 2, s(0) = 0 -> delay 4. *)
  let g = two_cycle () in
  let d = analyze ~k:2 g in
  check_int "delay" 4 d.Doacross.delay;
  let d0 = analyze ~k:0 g in
  check_int "free sync" 2 d0.Doacross.delay

let test_delay_divided_by_distance () =
  (* Distance-2 recurrence halves the per-iteration delay. *)
  let g = graph_of ~latencies:[| 1; 1 |] ~edges:[ (0, 1, 0); (1, 0, 2) ] in
  let d = analyze ~k:2 g in
  check_int "ceil((1+1+2-0)/2)" 2 d.Doacross.delay

let test_single_processor_no_sync () =
  let d = analyze ~p:1 (two_cycle ()) in
  check_int "no sync cost on 1 PE" 2 d.Doacross.delay

let test_invalid_order_rejected () =
  check_bool "violates dep" true
    (match analyze ~order:[ 1; 0 ] (two_cycle ()) with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "not a permutation" true
    (match analyze ~order:[ 0; 0 ] (two_cycle ()) with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------------------------------------------------------------- *)
(* Schedules and makespans                                           *)

let test_start_times_chain () =
  let g = two_cycle () in
  let d = analyze g in
  let starts = Doacross.start_times d ~iterations:5 in
  check_bool "monotone, delay-spaced" true
    (starts = [| 0; 4; 8; 12; 16 |])

let test_processor_reuse_constraint () =
  (* DOALL body of length 4 on 2 processors: iteration i+2 waits for
     iteration i's processor. *)
  let g = graph_of ~latencies:[| 4 |] ~edges:[] in
  let d = analyze g in
  let starts = Doacross.start_times d ~iterations:6 in
  check_bool "processor availability" true (starts = [| 0; 0; 4; 4; 8; 8 |])

let test_schedule_validates () =
  let d = analyze (Mimd_workloads.Cytron86.graph ()) in
  assert_valid (Doacross.schedule d ~iterations:12)

let test_effective_fallback () =
  let d = analyze (fig7 ()) in
  let n = 50 in
  check_int "falls back to sequential" (Mimd_core.Metrics.sequential_time (fig7 ()) ~iterations:n)
    (Doacross.effective_makespan d ~iterations:n);
  (* The effective schedule is single-processor and message-free. *)
  let s = Doacross.effective_schedule d ~iterations:n in
  let procs = List.sort_uniq compare (List.map (fun (e : Schedule.entry) -> e.proc) (Schedule.entries s)) in
  check_bool "one processor" true (procs = [ 0 ])

let test_effective_keeps_pipelining () =
  let g = Mimd_workloads.Cytron86.graph () in
  let d = Reorder.best ~graph:g ~machine:Mimd_workloads.Cytron86.machine () in
  let n = 50 in
  check_bool "pipelined beats sequential" true
    (Doacross.effective_makespan d ~iterations:n < Mimd_core.Metrics.sequential_time g ~iterations:n)

(* ---------------------------------------------------------------- *)
(* Reordering                                                        *)

let test_reorder_improves_when_possible () =
  (* lcd from node 2 to node 0 with nodes 1,2 independent: putting 2
     early shrinks the delay. *)
  let g = graph_of ~latencies:[| 1; 1; 1 |] ~edges:[ (0, 0, 1); (2, 0, 1) ] in
  let natural = analyze g in
  let best = (Reorder.exhaustive ~graph:g ~machine:(machine ()) ()).Reorder.analysis in
  check_bool "improvement" true (best.Doacross.delay < natural.Doacross.delay)

let test_reorder_cap () =
  let g = Mimd_workloads.Random_loop.generate ~seed:2 () in
  let o = Reorder.exhaustive ~max_orders:50 ~graph:g ~machine:(machine ()) () in
  check_bool "capped" true (not o.Reorder.complete);
  check_int "tried exactly the cap" 50 o.Reorder.orders_tried

let test_heuristic_is_valid_order () =
  let g = Mimd_workloads.Livermore.graph () in
  let h = Reorder.heuristic ~graph:g ~machine:(machine ()) () in
  (* analyze validates the order internally; delay must be sane. *)
  check_bool "non-negative delay" true (h.Doacross.delay >= 0)

let test_best_never_worse_than_natural () =
  List.iter
    (fun g ->
      let natural = analyze g in
      let best = Reorder.best ~graph:g ~machine:(machine ()) () in
      check_bool "best <= natural" true (best.Doacross.delay <= natural.Doacross.delay))
    [
      fig7 ();
      Mimd_workloads.Cytron86.graph ();
      Mimd_workloads.Livermore.graph ();
      Mimd_workloads.Elliptic.graph ();
    ]

(* ---------------------------------------------------------------- *)
(* Sequential                                                        *)

let test_sequential () =
  check_int "time" 500 (Mimd_core.Metrics.sequential_time (fig7 ()) ~iterations:100);
  let s = Sequential.schedule ~graph:(fig7 ()) ~iterations:5 in
  check_int "makespan = time" 25 (Schedule.makespan s);
  assert_valid s

(* ---------------------------------------------------------------- *)
(* Dopipe                                                            *)

let test_dopipe_stages () =
  (* fig7 collapses into a single SCC = single stage. *)
  let d = Dopipe.analyze ~graph:(fig7 ()) ~machine:(machine ()) () in
  check_int "one stage" 1 (Dopipe.processors d);
  (* Two decoupled recurrences + connection = cytron86 has SCCs:
     {0,1,2,4}, {3,5}, and 11 trivial flow-in ones. *)
  let d2 = Dopipe.analyze ~graph:(Mimd_workloads.Cytron86.graph ()) ~machine:(machine ()) () in
  check_int "13 stages" 13 (Dopipe.processors d2)

let test_dopipe_schedule_validates () =
  List.iter
    (fun g ->
      let d = Dopipe.analyze ~graph:g ~machine:(machine ()) () in
      assert_valid (Dopipe.schedule d ~iterations:8))
    [ fig7 (); Mimd_workloads.Cytron86.graph (); Mimd_workloads.Livermore.graph () ]

let test_dopipe_beats_sequential_on_decoupled () =
  (* Two independent unit recurrences chained at distance 1: Dopipe
     overlaps them. *)
  let g = graph_of ~latencies:[| 2; 2 |] ~edges:[ (0, 0, 1); (1, 1, 1); (0, 1, 1) ] in
  let d = Dopipe.analyze ~graph:g ~machine:(machine ~k:1 ()) () in
  let n = 50 in
  check_bool "overlap" true (Dopipe.makespan d ~iterations:n < Mimd_core.Metrics.sequential_time g ~iterations:n)

(* ---------------------------------------------------------------- *)
(* Properties                                                        *)

let prop_doacross_schedule_valid =
  qtest ~count:50 "doacross schedules validate" gen_cyclic_graph print_graph_spec
    (fun spec ->
      let g = build_cyclic spec in
      let d = analyze g in
      Schedule.validate (Doacross.schedule d ~iterations:10) = Ok ())

let prop_ours_beats_or_matches_doacross_mostly =
  (* Not a theorem, but with k = 0 our schedule is never worse: both
     respect the same dependences and ours exploits intra-iteration
     parallelism. *)
  qtest ~count:40 "k=0: ours <= doacross" gen_cyclic_graph print_graph_spec (fun spec ->
      let g = build_cyclic spec in
      let machine = machine ~p:4 ~k:0 () in
      let ours =
        Schedule.makespan
          (Mimd_core.Cyclic_sched.schedule_iterations ~graph:g ~machine ~iterations:12 ())
      in
      let doa =
        Doacross.effective_makespan (Doacross.analyze ~graph:g ~machine ()) ~iterations:12
      in
      ours <= doa)

let prop_dopipe_valid =
  qtest ~count:40 "dopipe schedules validate" gen_cyclic_graph print_graph_spec (fun spec ->
      let g = build_cyclic spec in
      let d = Dopipe.analyze ~graph:g ~machine:(machine ()) () in
      Schedule.validate (Dopipe.schedule d ~iterations:8) = Ok ())

let suite =
  [
    Alcotest.test_case "fig7: no overlap (paper Fig 8a)" `Quick test_fig7_no_overlap;
    Alcotest.test_case "fig7: reorder futile (paper Fig 8b)" `Quick test_fig7_reorder_still_no_overlap;
    Alcotest.test_case "doall: zero delay" `Quick test_doall_zero_delay;
    Alcotest.test_case "delay formula" `Quick test_delay_formula;
    Alcotest.test_case "delay divided by distance" `Quick test_delay_divided_by_distance;
    Alcotest.test_case "single PE: no sync" `Quick test_single_processor_no_sync;
    Alcotest.test_case "invalid orders rejected" `Quick test_invalid_order_rejected;
    Alcotest.test_case "start times: delay chain" `Quick test_start_times_chain;
    Alcotest.test_case "start times: processor reuse" `Quick test_processor_reuse_constraint;
    Alcotest.test_case "schedule validates" `Quick test_schedule_validates;
    Alcotest.test_case "effective: sequential fallback" `Quick test_effective_fallback;
    Alcotest.test_case "effective: keeps pipelining" `Quick test_effective_keeps_pipelining;
    Alcotest.test_case "reorder: improves when possible" `Quick test_reorder_improves_when_possible;
    Alcotest.test_case "reorder: cap respected" `Quick test_reorder_cap;
    Alcotest.test_case "reorder: heuristic valid" `Quick test_heuristic_is_valid_order;
    Alcotest.test_case "reorder: best <= natural" `Quick test_best_never_worse_than_natural;
    Alcotest.test_case "sequential baseline" `Quick test_sequential;
    Alcotest.test_case "dopipe: stage structure" `Quick test_dopipe_stages;
    Alcotest.test_case "dopipe: schedules validate" `Quick test_dopipe_schedule_validates;
    Alcotest.test_case "dopipe: overlaps decoupled recurrences" `Quick test_dopipe_beats_sequential_on_decoupled;
    prop_doacross_schedule_valid;
    prop_ours_beats_or_matches_doacross_mostly;
    prop_dopipe_valid;
  ]
