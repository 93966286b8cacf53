open Helpers
module Graph = Mimd_ddg.Graph
module Schedule = Mimd_core.Schedule
module Config_window = Mimd_core.Config_window
module Metrics = Mimd_core.Metrics

let entry node iter proc start = Schedule.{ inst = { node; iter }; proc; start }

let simple_sched ?(machine = machine ()) entries = Schedule.make ~graph:(fig7 ()) ~machine entries

let test_make_and_accessors () =
  let s = simple_sched [ entry 0 0 0 0; entry 1 0 0 1 ] in
  check_int "instances" 2 (Schedule.instance_count s);
  check_int "makespan" 2 (Schedule.makespan s);
  check_int "iterations" 1 (Schedule.iterations s);
  check_bool "find" true (Schedule.find s { node = 0; iter = 0 } <> None);
  check_bool "is_scheduled" true (Schedule.is_scheduled s { node = 0; iter = 0 });
  check_bool "not scheduled" false (Schedule.is_scheduled s { node = 2; iter = 0 })

let test_make_rejects () =
  Alcotest.check_raises "duplicate" (Invalid_argument "Schedule.make: duplicate instance")
    (fun () -> ignore (simple_sched [ entry 0 0 0 0; entry 0 0 1 5 ]));
  Alcotest.check_raises "duplicate far from iteration 0"
    (Invalid_argument "Schedule.make: duplicate instance") (fun () ->
      ignore (simple_sched [ entry 0 0 0 0; entry 2 500 0 10; entry 2 500 1 20 ]));
  Alcotest.check_raises "negative" (Invalid_argument "Schedule.make: negative start")
    (fun () -> ignore (simple_sched [ entry 0 0 0 (-1) ]));
  Alcotest.check_raises "proc range" (Invalid_argument "Schedule.make: processor out of range")
    (fun () -> ignore (simple_sched [ entry 0 0 7 0 ]))

let test_entries_sorted () =
  let s = simple_sched [ entry 1 0 0 5; entry 0 0 0 0; entry 2 0 1 3 ] in
  let starts = List.map (fun (e : Schedule.entry) -> e.start) (Schedule.entries s) in
  check_bool "ascending" true (starts = [ 0; 3; 5 ])

(* [make] keeps a list that already ascends and sorts any other by
   (start, proc, iter, node); both paths must agree with the plain
   sort, and [check] must raise exactly what [make] raises. *)
let prop_make_orders_like_sort =
  let gen =
    QCheck2.Gen.(
      let* cells = list_size (int_range 0 40) (pair (int_range 0 4) (int_range 0 30)) in
      let* placed =
        flatten_l
          (List.map
             (fun inst ->
               let* proc = int_range 0 2 in
               let* start = int_range 0 20 in
               return (inst, proc, start))
             (List.sort_uniq compare cells))
      in
      let* order = int_range 0 2 in
      let* dup = bool in
      return (placed, order, dup))
  in
  let print (placed, order, dup) =
    Printf.sprintf "order=%d dup=%b [%s]" order dup
      (String.concat "; "
         (List.map (fun ((n, i), p, t) -> Printf.sprintf "%d_%d@%d/PE%d" n i t p) placed))
  in
  let cmp (a : Schedule.entry) (b : Schedule.entry) =
    compare (a.start, a.proc, a.inst.iter, a.inst.node) (b.start, b.proc, b.inst.iter, b.inst.node)
  in
  qtest ~count:200 "schedule: make orders like a sort; check raises like make" gen print
    (fun (placed, order, dup) ->
      let entries =
        List.map (fun ((node, iter), proc, start) -> entry node iter proc start) placed
      in
      (* 0: instance order; 1: already ascending; 2: descending *)
      let entries =
        match order with
        | 1 -> List.sort cmp entries
        | 2 -> List.rev (List.sort cmp entries)
        | _ -> entries
      in
      let entries =
        match (dup, entries) with
        | true, e :: _ -> { e with proc = 1 - min 1 e.proc } :: entries
        | _ -> entries
      in
      let machine = machine ~p:3 () in
      let outcome f = match f () with () -> None | exception Invalid_argument m -> Some m in
      let made = outcome (fun () -> ignore (simple_sched ~machine entries)) in
      made = outcome (fun () -> Schedule.check ~graph:(fig7 ()) ~machine entries)
      && (made <> None || Schedule.entries (simple_sched ~machine entries) = List.sort cmp entries))

let test_overlap_detected () =
  (* B has latency 1; two entries at the same cycle on one processor. *)
  let s = simple_sched [ entry 0 0 0 0; entry 1 0 0 0 ] in
  check_bool "violation found" true
    (List.exists
       (function Schedule.Overlap _ -> true | _ -> false)
       (Schedule.violations s))

let test_dependence_violation_detected () =
  (* B depends on A (distance 0); schedule B before A finishes. *)
  let s = simple_sched [ entry 0 0 0 0; entry 1 0 1 0 ] in
  check_bool "dependence violation" true
    (List.exists
       (function Schedule.Dependence_violated _ -> true | _ -> false)
       (Schedule.violations s))

let test_comm_cost_enforced () =
  (* A on PE0 finishing at 1; B on PE1 must wait k=2 more. *)
  let ok = simple_sched [ entry 0 0 0 0; entry 1 0 1 3 ] in
  assert_valid ~closed:false ok;
  let bad = simple_sched [ entry 0 0 0 0; entry 1 0 1 2 ] in
  check_bool "too early across PEs" true (Schedule.validate ~closed:false bad <> Ok ())

let test_same_proc_no_comm () =
  let s = simple_sched [ entry 0 0 0 0; entry 1 0 0 1 ] in
  assert_valid ~closed:false s

let test_missing_predecessor_closed () =
  (* B0 scheduled without A0. *)
  let s = simple_sched [ entry 1 0 0 0 ] in
  check_bool "closed: missing pred" true
    (List.exists
       (function Schedule.Missing_predecessor _ -> true | _ -> false)
       (Schedule.violations s));
  check_bool "open: fine" true (Schedule.validate ~closed:false s = Ok ())

let test_negative_iteration_preds_exempt () =
  (* A0's predecessors (A[-1], E[-1]) reach before iteration 0. *)
  let s = simple_sched [ entry 0 0 0 0 ] in
  assert_valid s

let test_utilization () =
  let s = simple_sched [ entry 0 0 0 0; entry 1 0 1 0 ] in
  Alcotest.(check (float 0.001)) "both busy 1 of 1" 1.0 (Schedule.utilization s);
  let s2 = simple_sched [ entry 0 0 0 0; entry 1 0 0 3 ] in
  Alcotest.(check (float 0.001)) "2 busy of 8" 0.25 (Schedule.utilization s2)

let test_render_grid () =
  let s = simple_sched [ entry 0 0 0 0; entry 3 0 1 0 ] in
  let grid = Schedule.render_grid s in
  check_bool "mentions A0" true
    (String.split_on_char '\n' grid
    |> List.exists (fun l -> String.length l >= 2 && String.index_opt l 'A' <> None))

let test_render_grid_multicycle () =
  let g = graph_of ~latencies:[| 3 |] ~edges:[ (0, 0, 1) ] in
  let s =
    Schedule.make ~graph:g ~machine:(machine ())
      [ Schedule.{ inst = { node = 0; iter = 0 }; proc = 0; start = 0 } ]
  in
  let lines = String.split_on_char '\n' (Schedule.render_grid s) in
  (* Rows 1 and 2 of the op show the continuation bar. *)
  check_bool "continuation bars" true
    (List.filter (fun l -> String.index_opt l '|' <> None) lines |> List.length >= 2)

(* ---------------------------------------------------------------- *)
(* Configuration windows                                             *)

let overlapping_of sched ~top ~bottom =
  List.filter
    (fun (e : Schedule.entry) ->
      e.start <= bottom && e.start + Graph.latency (Schedule.graph sched) e.inst.node > top)
    (Schedule.entries sched)

let test_window_empty () =
  let s = simple_sched [ entry 0 0 0 0 ] in
  let cfg =
    Config_window.extract ~graph:(fig7 ())
      ~entries_overlapping:(fun ~top ~bottom -> overlapping_of s ~top ~bottom)
      ~top:10 ~height:3
  in
  check_bool "idle window is None" true (cfg = None)

let test_window_shift_invariance () =
  (* Two single-instance windows, same node, shifted by one iteration:
     identical keys, shift 1. *)
  let s = simple_sched [ entry 0 0 0 0; entry 0 1 0 5 ] in
  let get top =
    Option.get
      (Config_window.extract ~graph:(fig7 ())
         ~entries_overlapping:(fun ~top ~bottom -> overlapping_of s ~top ~bottom)
         ~top ~height:1)
  in
  let c0 = get 0 and c5 = get 5 in
  check_bool "keys equal" true (c0.Config_window.key = c5.Config_window.key);
  check_int "shift" 1 (Config_window.shift_between ~earlier:c0 ~later:c5)

let test_window_phase_distinguishes () =
  (* A latency-3 op seen on its first vs second cycle gives different
     keys (phase differs). *)
  let g = graph_of ~latencies:[| 3 |] ~edges:[ (0, 0, 1) ] in
  let s =
    Schedule.make ~graph:g ~machine:(machine ())
      [ Schedule.{ inst = { node = 0; iter = 0 }; proc = 0; start = 0 } ]
  in
  let get top =
    Option.get
      (Config_window.extract ~graph:g
         ~entries_overlapping:(fun ~top ~bottom -> overlapping_of s ~top ~bottom)
         ~top ~height:1)
  in
  check_bool "different phases differ" true
    ((get 0).Config_window.key <> (get 1).Config_window.key)

let test_window_layout_distinguishes () =
  (* Same instances, different processors: different keys. *)
  let s1 = simple_sched [ entry 0 0 0 0 ] in
  let s2 = simple_sched [ entry 0 0 1 0 ] in
  let get s =
    Option.get
      (Config_window.extract ~graph:(fig7 ())
         ~entries_overlapping:(fun ~top ~bottom -> overlapping_of s ~top ~bottom)
         ~top:0 ~height:1)
  in
  check_bool "proc matters" true ((get s1).Config_window.key <> (get s2).Config_window.key)

(* ---------------------------------------------------------------- *)
(* Metrics                                                           *)

let test_percentage_parallelism () =
  Alcotest.(check (float 0.001)) "paper fig7" 40.0
    (Metrics.percentage_parallelism ~sequential:500 ~parallel:300);
  Alcotest.(check (float 0.001)) "zero" 0.0
    (Metrics.percentage_parallelism ~sequential:10 ~parallel:10);
  check_bool "negative allowed" true
    (Metrics.percentage_parallelism ~sequential:10 ~parallel:12 < 0.0)

let test_sequential_time () =
  check_int "fig7 x 100" 500 (Metrics.sequential_time (fig7 ()) ~iterations:100)

(* The dense instance index spans [iter_lo, iter_hi] x nodes; lookups
   outside it, and holes inside it, must read as absent. *)
let test_index_find_out_of_range () =
  let s = simple_sched [ entry 0 0 0 0; entry 1 3 0 5 ] in
  let absent node iter =
    check_bool (Printf.sprintf "(%d,%d) absent" node iter) true
      (Schedule.find s { node; iter } = None && not (Schedule.is_scheduled s { node; iter }))
  in
  absent 0 (-1);
  absent 0 4;
  absent 1 1000;
  absent 5 0;
  absent (-1) 0;
  absent 0 1;
  check_bool "present" true (Schedule.find s { node = 1; iter = 3 } = Some (entry 1 3 0 5));
  check_int "iterations" 4 (Schedule.iterations s)

(* Iterations 500-501 only, with nodes 3 and 4 of iteration 501
   missing: two holes inside the index's span. *)
let sparse_slice () =
  List.concat_map
    (fun (iter, nodes) ->
      List.init nodes (fun node -> entry node iter (node mod 2) ((10 * iter) + node)))
    [ (500, 5); (501, 3) ]

let check_sparse_slice s =
  List.iter
    (fun (e : Schedule.entry) ->
      check_bool "slice entry found" true (Schedule.find s e.inst = Some e))
    (sparse_slice ());
  let absent node iter =
    check_bool (Printf.sprintf "(%d,%d) absent" node iter) true
      (Schedule.find s { node; iter } = None && not (Schedule.is_scheduled s { node; iter }))
  in
  absent 3 501;
  absent 4 501;
  List.iter (fun iter -> for node = 0 to 4 do absent node iter done) [ 0; 499; 502 ];
  check_int "instances" 8 (Schedule.instance_count s);
  check_int "iterations" 502 (Schedule.iterations s)

let test_index_sparse_slice () =
  let s = simple_sched (sparse_slice ()) in
  check_sparse_slice s;
  (* the disk cache marshals schedules: holes must stay absent in the
     copy, which does not share the original's sentinel *)
  check_sparse_slice (Marshal.from_string (Marshal.to_string s []) 0 : Schedule.t)

let test_index_empty () =
  let s = simple_sched [] in
  check_int "instances" 0 (Schedule.instance_count s);
  check_int "iterations" 0 (Schedule.iterations s);
  check_int "makespan" 0 (Schedule.makespan s);
  check_bool "entries" true (Schedule.entries s = []);
  check_bool "find" true (Schedule.find s { node = 0; iter = 0 } = None);
  assert_valid s;
  ignore (Schedule.render_grid s)

let suite =
  [
    Alcotest.test_case "schedule: make/accessors" `Quick test_make_and_accessors;
    Alcotest.test_case "schedule: rejects invalid" `Quick test_make_rejects;
    Alcotest.test_case "schedule: entries sorted" `Quick test_entries_sorted;
    Alcotest.test_case "schedule: overlap detected" `Quick test_overlap_detected;
    Alcotest.test_case "schedule: dependence violation" `Quick test_dependence_violation_detected;
    Alcotest.test_case "schedule: communication cost enforced" `Quick test_comm_cost_enforced;
    Alcotest.test_case "schedule: same-proc comm free" `Quick test_same_proc_no_comm;
    Alcotest.test_case "schedule: closed vs open validation" `Quick test_missing_predecessor_closed;
    Alcotest.test_case "schedule: pre-loop preds exempt" `Quick test_negative_iteration_preds_exempt;
    Alcotest.test_case "schedule: utilization" `Quick test_utilization;
    Alcotest.test_case "schedule: grid rendering" `Quick test_render_grid;
    Alcotest.test_case "schedule: multi-cycle grid" `Quick test_render_grid_multicycle;
    Alcotest.test_case "window: idle is None" `Quick test_window_empty;
    Alcotest.test_case "window: shifted forms match" `Quick test_window_shift_invariance;
    Alcotest.test_case "window: phase distinguishes" `Quick test_window_phase_distinguishes;
    Alcotest.test_case "window: layout distinguishes" `Quick test_window_layout_distinguishes;
    Alcotest.test_case "metrics: percentage parallelism" `Quick test_percentage_parallelism;
    Alcotest.test_case "metrics: sequential time" `Quick test_sequential_time;
    Alcotest.test_case "index: out-of-range find is absent" `Quick test_index_find_out_of_range;
    Alcotest.test_case "index: sparse slice, also marshalled" `Quick test_index_sparse_slice;
    Alcotest.test_case "index: empty schedule" `Quick test_index_empty;
    prop_make_orders_like_sort;
  ]
