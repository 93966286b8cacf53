open Helpers
module Graph = Mimd_ddg.Graph
module Schedule = Mimd_core.Schedule
module Cyclic_sched = Mimd_core.Cyclic_sched
module Pattern = Mimd_core.Pattern

let solve ?(p = 2) ?(k = 2) g = Cyclic_sched.solve ~graph:g ~machine:(machine ~p ~k ()) ()

(* ---------------------------------------------------------------- *)
(* The paper's worked example                                        *)

let test_fig7_rate () =
  (* Paper Figure 7(d): one iteration completed every three cycles. *)
  let r = solve (fig7 ()) in
  Alcotest.(check (float 0.001)) "3 cycles/iter" 3.0 (Pattern.rate r.Cyclic_sched.pattern)

let test_fig7_sp_40 () =
  (* Paper: percentage parallelism 40 for this loop. *)
  let machine = machine () in
  let sched = Cyclic_sched.schedule_iterations ~graph:(fig7 ()) ~machine ~iterations:100 () in
  let seq = 100 * Graph.total_latency (fig7 ()) in
  Alcotest.(check (float 0.001)) "Sp = 40" 40.0
    (Mimd_core.Metrics.percentage_parallelism ~sequential:seq
       ~parallel:(Schedule.makespan sched))

let test_fig7_expansion_valid () =
  let r = solve (fig7 ()) in
  let sched = Pattern.expand r.Cyclic_sched.pattern ~iterations:50 in
  assert_valid sched;
  check_int "all instances present" (5 * 50) (Schedule.instance_count sched)

let test_fig7_zero_comm_is_perfect_pipelining () =
  (* k = 0 degenerates to the Perfect Pipelining assumption; the rate
     should reach the recurrence bound exactly (2.5 cycles/iter needs
     a 2-iteration pattern). *)
  let r = solve ~p:4 ~k:0 (fig7 ()) in
  Alcotest.(check (float 0.001)) "rate = recurrence bound" 2.5
    (Pattern.rate r.Cyclic_sched.pattern)

(* ---------------------------------------------------------------- *)
(* Small closed-form cases                                           *)

let test_self_loop_rate () =
  (* One node, latency L, self-dependence: L cycles per iteration on
     one processor, whatever k. *)
  let r = solve ~k:3 (self_loop ~latency:4 ()) in
  Alcotest.(check (float 0.001)) "rate = latency" 4.0 (Pattern.rate r.Cyclic_sched.pattern);
  (* Everything lands on one processor: no reason to pay communication. *)
  let sched = Pattern.expand r.Cyclic_sched.pattern ~iterations:10 in
  let procs =
    List.sort_uniq compare (List.map (fun (e : Schedule.entry) -> e.proc) (Schedule.entries sched))
  in
  check_int "single processor" 1 (List.length procs)

let test_two_cycle_rate () =
  (* A -> B -> (next) A, unit latencies: the cycle takes 2 cycles per
     iteration; cross-processor placement would add communication, so
     the pattern keeps the chain on one processor. *)
  let r = solve ~k:2 (two_cycle ()) in
  Alcotest.(check (float 0.001)) "2 cycles/iter" 2.0 (Pattern.rate r.Cyclic_sched.pattern)

let test_two_independent_cycles_parallel () =
  (* Two self-loops joined by nothing but iteration numbering cannot
     exist (graph must stay one component for solve), so join them with
     a distance-1 edge; each processor should still carry one chain at
     full rate. *)
  let g =
    graph_of ~latencies:[| 1; 1 |] ~edges:[ (0, 0, 1); (1, 1, 1); (0, 1, 1) ]
  in
  (* With free communication the two chains pipeline at full rate; with
     k = 2 the greedy may interleave them (it is a heuristic), but can
     never fall below half rate here. *)
  let r0 = solve ~k:0 g in
  Alcotest.(check (float 0.001)) "k=0: 1 cycle/iter" 1.0 (Pattern.rate r0.Cyclic_sched.pattern);
  let r2 = solve ~k:2 g in
  check_bool "k=2: at most 2 cycles/iter" true (Pattern.rate r2.Cyclic_sched.pattern <= 2.0)

let test_insufficient_processors_serialize () =
  (* Four independent unit self-loops chained by distance-1 edges on 1
     processor: 4 cycles per iteration. *)
  let g =
    graph_of ~latencies:[| 1; 1; 1; 1 |]
      ~edges:[ (0, 0, 1); (1, 1, 1); (2, 2, 1); (3, 3, 1); (0, 1, 1); (1, 2, 1); (2, 3, 1) ]
  in
  let r = solve ~p:1 ~k:2 g in
  Alcotest.(check (float 0.001)) "serialized" 4.0 (Pattern.rate r.Cyclic_sched.pattern)

(* ---------------------------------------------------------------- *)
(* Structural properties of solve                                    *)

let test_rejects_predless () =
  let g = graph_of ~latencies:[| 1; 1 |] ~edges:[ (0, 1, 0); (1, 1, 1) ] in
  check_bool "rejects non-Cyclic input" true
    (match solve g with _ -> false | exception Invalid_argument _ -> true)

let test_rejects_distance_2 () =
  let g = graph_of ~latencies:[| 1 |] ~edges:[ (0, 0, 2) ] in
  check_bool "rejects distance 2" true
    (match solve g with _ -> false | exception Invalid_argument _ -> true)

let test_rejects_zero_cycle () =
  let g = graph_of ~latencies:[| 1; 1 |] ~edges:[ (0, 1, 0); (1, 0, 0) ] in
  check_bool "rejects distance-0 cycle" true
    (match solve g with _ -> false | exception Invalid_argument _ -> true)

let test_determinism () =
  let r1 = solve (Mimd_workloads.Elliptic.graph ()) in
  let r2 = solve (Mimd_workloads.Elliptic.graph ()) in
  check_int "same height" r1.Cyclic_sched.pattern.Pattern.height
    r2.Cyclic_sched.pattern.Pattern.height;
  check_bool "same body" true
    (r1.Cyclic_sched.pattern.Pattern.body = r2.Cyclic_sched.pattern.Pattern.body)

let test_stats_populated () =
  let r = solve (fig7 ()) in
  let s = r.Cyclic_sched.stats in
  check_bool "pops > 0" true (s.Cyclic_sched.pops > 0);
  check_bool "iterations touched" true (s.Cyclic_sched.iterations_touched >= 2);
  check_bool "configurations checked" true (s.Cyclic_sched.configurations_checked > 0)

let test_no_pattern_budget () =
  check_bool "tiny budget raises" true
    (match
       Cyclic_sched.solve ~max_iterations:1 ~graph:(Mimd_workloads.Elliptic.graph ())
         ~machine:(machine ()) ()
     with
    | _ -> false
    | exception Cyclic_sched.No_pattern _ -> true)

(* ---------------------------------------------------------------- *)
(* schedule_iterations                                               *)

let test_finite_counts () =
  let machine = machine () in
  let sched = Cyclic_sched.schedule_iterations ~graph:(fig7 ()) ~machine ~iterations:7 () in
  check_int "instances" 35 (Schedule.instance_count sched);
  check_int "iterations" 7 (Schedule.iterations sched);
  assert_valid sched

let test_finite_rejects_zero () =
  check_bool "iterations <= 0" true
    (match
       Cyclic_sched.schedule_iterations ~graph:(fig7 ()) ~machine:(machine ()) ~iterations:0 ()
     with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_finite_handles_predless () =
  (* schedule_iterations, unlike solve, accepts Flow-in-style roots. *)
  let g = graph_of ~latencies:[| 1; 1 |] ~edges:[ (0, 1, 0); (1, 1, 1) ] in
  let sched =
    Cyclic_sched.schedule_iterations ~graph:g ~machine:(machine ()) ~iterations:10 ()
  in
  check_int "all scheduled" 20 (Schedule.instance_count sched);
  assert_valid sched

let test_finite_matches_pattern_rate () =
  (* Long runs approach the pattern's steady-state rate. *)
  let g = Mimd_workloads.Elliptic.graph () in
  let cls = Mimd_core.Classify.run g in
  let core, _, _ = Mimd_core.Classify.cyclic_subgraph g cls in
  let machine = machine () in
  let r = Cyclic_sched.solve ~graph:core ~machine () in
  let n = 200 in
  let sched = Cyclic_sched.schedule_iterations ~graph:core ~machine ~iterations:n () in
  let per_iter = float_of_int (Schedule.makespan sched) /. float_of_int n in
  let rate = Pattern.rate r.Cyclic_sched.pattern in
  check_bool "within 10% of pattern rate" true (Float.abs (per_iter -. rate) /. rate < 0.1)

(* ---------------------------------------------------------------- *)
(* Pattern expansion                                                 *)

let test_expand_counts_scale () =
  let r = solve (two_cycle ()) in
  let p = r.Cyclic_sched.pattern in
  check_int "body size = nodes x shift" (2 * p.Pattern.iter_shift)
    (Pattern.nodes_per_repetition p);
  let s10 = Pattern.expand p ~iterations:10 in
  check_int "10 iterations" 20 (Schedule.instance_count s10)

let test_expand_rejects () =
  let r = solve (two_cycle ()) in
  check_bool "iterations <= 0" true
    (match Pattern.expand r.Cyclic_sched.pattern ~iterations:0 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_makespan_linear_in_periods () =
  let r = solve (fig7 ()) in
  let p = r.Cyclic_sched.pattern in
  let d = p.Pattern.iter_shift in
  let base = 10 * d in
  let m1 = Pattern.makespan p ~iterations:base in
  let m2 = Pattern.makespan p ~iterations:(base + (5 * d)) in
  check_int "height per d iterations" (5 * p.Pattern.height) (m2 - m1)

(* ---------------------------------------------------------------- *)
(* Properties on random Cyclic graphs                                *)

let prop_pattern_found_and_valid =
  qtest ~count:60 "pattern exists and expansion validates" gen_cyclic_graph
    print_graph_spec (fun spec ->
      let g = build_cyclic spec in
      let machine = machine ~p:3 ~k:2 () in
      let r = Cyclic_sched.solve ~graph:g ~machine () in
      let sched = Pattern.expand r.Cyclic_sched.pattern ~iterations:20 in
      Schedule.validate sched = Ok ()
      && Schedule.instance_count sched = 20 * Graph.node_count g)

let prop_finite_schedule_valid =
  qtest ~count:60 "finite greedy schedules validate" gen_cyclic_graph print_graph_spec
    (fun spec ->
      let g = build_cyclic spec in
      let machine = machine ~p:2 ~k:3 () in
      let sched = Cyclic_sched.schedule_iterations ~graph:g ~machine ~iterations:15 () in
      Schedule.validate sched = Ok ()
      && Schedule.instance_count sched = 15 * Graph.node_count g)

let prop_pattern_body_covers_each_node =
  qtest ~count:60 "pattern body holds each node iter_shift times" gen_cyclic_graph
    print_graph_spec (fun spec ->
      let g = build_cyclic spec in
      let machine = machine ~p:3 ~k:1 () in
      let r = Cyclic_sched.solve ~graph:g ~machine () in
      let p = r.Cyclic_sched.pattern in
      let counts = Array.make (Graph.node_count g) 0 in
      List.iter
        (fun (e : Schedule.entry) -> counts.(e.inst.node) <- counts.(e.inst.node) + 1)
        p.Pattern.body;
      Array.for_all (fun c -> c = p.Pattern.iter_shift) counts)

let prop_more_processors_never_hurt_much =
  (* Greedy is not strictly monotone, but 4 processors should never be
     dramatically slower than 1 (sanity guard against pathological
     placement). *)
  qtest ~count:30 "4 PEs not much worse than 1" gen_cyclic_graph print_graph_spec
    (fun spec ->
      let g = build_cyclic spec in
      let m1 =
        Schedule.makespan
          (Cyclic_sched.schedule_iterations ~graph:g ~machine:(machine ~p:1 ~k:2 ())
             ~iterations:20 ())
      in
      let m4 =
        Schedule.makespan
          (Cyclic_sched.schedule_iterations ~graph:g ~machine:(machine ~p:4 ~k:2 ())
             ~iterations:20 ())
      in
      float_of_int m4 <= (1.2 *. float_of_int m1) +. 20.0)

let prop_makespan_closed_form =
  let gen =
    QCheck2.Gen.(
      let* spec = gen_cyclic_graph in
      let* p = int_range 1 4 in
      let* k = int_range 0 3 in
      return (spec, p, k))
  in
  let print (spec, p, k) = Printf.sprintf "p=%d k=%d %s" p k (print_graph_spec spec) in
  qtest ~count:60 "pattern: closed-form makespan == expanded makespan" gen print
    (fun (spec, p, k) ->
      let r = solve ~p ~k (build_cyclic spec) in
      let pat = r.Cyclic_sched.pattern in
      let last_iter =
        List.fold_left
          (fun acc (e : Schedule.entry) -> max acc e.inst.iter)
          0 (pat.Pattern.prologue @ pat.Pattern.body)
      in
      let upto = last_iter + 1 + (5 * pat.Pattern.iter_shift) in
      List.for_all
        (fun iterations ->
          Pattern.makespan pat ~iterations
          = Schedule.makespan (Pattern.expand pat ~iterations))
        (List.init upto (fun i -> i + 1)))

let test_pattern_utilization () =
  (* fig7: 10 latency in a 2x6 pattern = 5/6 busy. *)
  let r = solve (fig7 ()) in
  Alcotest.(check (float 0.001)) "5/6" (10.0 /. 12.0)
    (Pattern.utilization r.Cyclic_sched.pattern)

let test_gap_filling_multilatency () =
  (* A latency-3 recurrence and a unit recurrence: the greedy fills the
     long op's shadow with the short chain when they share a processor;
     whatever the placement, the schedule is tight and valid. *)
  let g =
    graph_of ~latencies:[| 3; 1 |] ~edges:[ (0, 0, 1); (1, 1, 1); (0, 1, 1) ]
  in
  let r = solve ~p:1 ~k:2 g in
  Alcotest.(check (float 0.001)) "one PE: serialized" 4.0 (Pattern.rate r.Cyclic_sched.pattern);
  let r2 = solve ~p:2 ~k:2 g in
  check_bool "two PEs: no worse" true (Pattern.rate r2.Cyclic_sched.pattern <= 4.0)

let test_rolled_idle_processor_branch () =
  (* A single self-recurrence on 2 PEs leaves PE1 without steady-state
     work; the rolled printer must say so rather than crash. *)
  let r = solve (self_loop ~latency:2 ()) in
  let s = Mimd_codegen.Rolled.render r.Cyclic_sched.pattern in
  let contains sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "idle branch" true (contains "no steady-state work")

(* ---------------------------------------------------------------- *)
(* Slot-probing primitives (For_tests)                               *)

module FT = Cyclic_sched.For_tests

let entry ~node ~iter ~proc ~start = Schedule.{ inst = { node; iter }; proc; start }

let test_first_fit_gap_exactly_fits () =
  (* busy [0,2) and [5,8): the gap [2,5) is exactly three cycles wide *)
  let tl = FT.empty_timeline () in
  FT.place tl ~key:0 ~start:0 ~len:2;
  FT.place tl ~key:1 ~start:5 ~len:3;
  check_int "3-wide interval lands in the 3-wide gap" 2 (FT.first_fit tl ~ready:0 ~len:3);
  check_int "4-wide interval skips past both" 8 (FT.first_fit tl ~ready:0 ~len:4);
  check_int "ready at the gap's first cycle still fits" 2 (FT.first_fit tl ~ready:2 ~len:3);
  check_int "ready past the gap start cannot use it" 8 (FT.first_fit tl ~ready:3 ~len:3)

let test_first_fit_abutting () =
  let tl = FT.empty_timeline () in
  (* busy [3,5): candidates may end exactly where it starts and begin
     exactly where it finishes *)
  FT.place tl ~key:0 ~start:3 ~len:2;
  check_int "abuts the busy interval from below" 1 (FT.first_fit tl ~ready:1 ~len:2);
  check_int "ready inside the busy interval slides to its finish" 5
    (FT.first_fit tl ~ready:4 ~len:2);
  check_int "empty tail fits at ready" 7 (FT.first_fit tl ~ready:7 ~len:2)

(* The skip pointers must give exactly the earliest fit a cell-by-cell
   scan gives.  Each op is a probe or a placement at the first fit,
   from a ready bound that is often 0 after many placements (the
   Flow-in case).  The fixed prefix allocates the 1024-cycle arena and
   then forces it to double under the pointers; random bounds up to
   3000 double it again. *)
let prop_first_fit_matches_scan =
  let lens = [| 1; 2; 3; 5 |] in
  let gen =
    QCheck2.Gen.(
      list_size (int_range 100 400)
        (triple bool (oneof [ return 0; int_range 0 3000 ]) (int_range 0 3)))
  in
  let print ops =
    String.concat "; "
      (List.map
         (fun (p, r, v) -> Printf.sprintf "%s %d n%d" (if p then "place" else "probe") r v)
         ops)
  in
  qtest ~count:40 "first_fit: skip pointers == cell-by-cell scan" gen print (fun ops ->
      let busy = Bytes.make 8192 '\000' in
      let rec scan t len =
        let rec fits c = c >= t + len || (Bytes.get busy c = '\000' && fits (c + 1)) in
        if fits t then t else scan (t + 1) len
      in
      let tl = FT.empty_timeline () in
      List.for_all
        (fun (place, ready, node) ->
          let len = lens.(node) in
          let got = FT.first_fit tl ~ready ~len in
          let ok = got = scan ready len in
          if place then begin
            FT.place tl ~key:0 ~start:got ~len;
            Bytes.fill busy got len '\001'
          end;
          ok)
        ((true, 0, 1) :: (true, 1500, 2) :: ops))

let sort_entries = List.sort (fun (a : Schedule.entry) b -> compare a b)

let test_overlapping_straddles_top () =
  (* Node 1 carries the max latency 4; the instance starting below the
     window must be found only while its interval still crosses top. *)
  let e_before = entry ~node:0 ~iter:0 ~proc:0 ~start:0 in (* [0,1): ends before top *)
  let e_straddle = entry ~node:1 ~iter:0 ~proc:0 ~start:2 in (* [2,6): crosses top 5 *)
  let e_inside = entry ~node:0 ~iter:1 ~proc:0 ~start:7 in (* [7,8): inside window *)
  let placed = [| (e_before, 1); (e_straddle, 4); (e_inside, 1) |] in
  let tl = FT.empty_timeline () in
  Array.iteri
    (fun key ((e : Schedule.entry), len) -> FT.place tl ~key ~start:e.start ~len)
    placed;
  let entry_of key = fst placed.(key) in
  check_bool "straddler and inside entry, not the finished one" true
    (sort_entries (FT.overlapping tl ~entry_of ~max_latency:4 ~top:5 ~bottom:8)
    = sort_entries [ e_straddle; e_inside ]);
  (* with top = 6 the latency-4 interval finishes exactly at top and no
     longer overlaps *)
  check_bool "half-open finish at top excluded" true
    (sort_entries (FT.overlapping tl ~entry_of ~max_latency:4 ~top:6 ~bottom:8)
    = sort_entries [ e_inside ])

(* ---------------------------------------------------------------- *)
(* Allocation                                                        *)

(* Minor-heap words per scheduled instance of the bounded greedy plus
   its [Schedule.make], on the loops and shape the compile benchmark
   runs (p=2 k=2 n=2000).  Allocation is deterministic, so this holds
   on any host: the placement loop allocates nothing per instance, and
   what remains is the entry records and the schedule's lists: 16.0
   words on both loops.  The bound, 32, leaves 2x headroom; the
   greedy's predecessor, with a set-backed ready queue, an entry record
   per placement and a comparison-sorted freeze, measured 161-165. *)
let minor_words_per_instance name =
  let src = In_channel.with_open_text ("../examples/loops/" ^ name) In_channel.input_all in
  let g = (Mimd_loop_ir.Depend.analyze_string src).Mimd_loop_ir.Depend.graph in
  let g = (Mimd_ddg.Unwind.normalize g).Mimd_ddg.Unwind.graph in
  let machine = machine ~p:2 ~k:2 () in
  let run () = Cyclic_sched.schedule_iterations ~graph:g ~machine ~iterations:2000 () in
  ignore (run ());
  let before = Gc.minor_words () in
  let sched = run () in
  let words = Gc.minor_words () -. before in
  words /. float_of_int (Schedule.instance_count sched)

let test_greedy_minor_words () =
  List.iter
    (fun name ->
      let w = minor_words_per_instance name in
      if w > 32.0 then
        Alcotest.failf "%s: %.1f minor words per scheduled instance (bound 32)" name w)
    [ "ewf.loop"; "fig1.loop" ]

let suite =
  [
    Alcotest.test_case "fig7: 3 cycles per iteration" `Quick test_fig7_rate;
    Alcotest.test_case "fig7: Sp = 40 (paper)" `Quick test_fig7_sp_40;
    Alcotest.test_case "fig7: expansion valid and complete" `Quick test_fig7_expansion_valid;
    Alcotest.test_case "fig7: k=0 hits recurrence bound" `Quick test_fig7_zero_comm_is_perfect_pipelining;
    Alcotest.test_case "self loop: rate = latency" `Quick test_self_loop_rate;
    Alcotest.test_case "two-node cycle: rate 2" `Quick test_two_cycle_rate;
    Alcotest.test_case "independent cycles run in parallel" `Quick test_two_independent_cycles_parallel;
    Alcotest.test_case "1 PE serializes" `Quick test_insufficient_processors_serialize;
    Alcotest.test_case "solve rejects pred-less nodes" `Quick test_rejects_predless;
    Alcotest.test_case "solve rejects distance 2" `Quick test_rejects_distance_2;
    Alcotest.test_case "solve rejects distance-0 cycles" `Quick test_rejects_zero_cycle;
    Alcotest.test_case "solve is deterministic" `Quick test_determinism;
    Alcotest.test_case "solve stats populated" `Quick test_stats_populated;
    Alcotest.test_case "tiny budget raises No_pattern" `Quick test_no_pattern_budget;
    Alcotest.test_case "finite: counts and validity" `Quick test_finite_counts;
    Alcotest.test_case "finite: rejects 0 iterations" `Quick test_finite_rejects_zero;
    Alcotest.test_case "finite: handles pred-less roots" `Quick test_finite_handles_predless;
    Alcotest.test_case "finite: approaches pattern rate" `Quick test_finite_matches_pattern_rate;
    Alcotest.test_case "expand: counts scale" `Quick test_expand_counts_scale;
    Alcotest.test_case "expand: rejects 0" `Quick test_expand_rejects;
    Alcotest.test_case "expand: makespan linear in periods" `Quick test_makespan_linear_in_periods;
    Alcotest.test_case "pattern: utilization" `Quick test_pattern_utilization;
    Alcotest.test_case "gap filling with mixed latencies" `Quick test_gap_filling_multilatency;
    Alcotest.test_case "first_fit: gap exactly fits" `Quick test_first_fit_gap_exactly_fits;
    Alcotest.test_case "first_fit: abutting intervals" `Quick test_first_fit_abutting;
    Alcotest.test_case "overlapping: straddles window top" `Quick test_overlapping_straddles_top;
    Alcotest.test_case "rolled: idle processor branch" `Quick test_rolled_idle_processor_branch;
    prop_pattern_found_and_valid;
    prop_finite_schedule_valid;
    prop_pattern_body_covers_each_node;
    prop_more_processors_never_hurt_much;
    prop_first_fit_matches_scan;
    Alcotest.test_case "greedy: minor words per instance bounded" `Quick
      test_greedy_minor_words;
    prop_makespan_closed_form;
  ]
