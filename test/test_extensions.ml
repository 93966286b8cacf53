(* Bounds, topologies, synthetic families, and the
   pattern-statistics experiment. *)

open Helpers
module Graph = Mimd_ddg.Graph
module Gen = Mimd_ddg.Gen
module Bounds = Mimd_core.Bounds
module Topology = Mimd_sim.Topology
module Links = Mimd_sim.Links

(* ---------------------------------------------------------------- *)
(* Bounds                                                            *)

let test_bounds_fig7 () =
  let b = Bounds.compute ~graph:(fig7 ()) ~processors:2 in
  Alcotest.(check (float 0.01)) "recurrence" 2.5 b.Bounds.recurrence;
  Alcotest.(check (float 0.01)) "resource" 2.5 b.Bounds.resource;
  check_int "span" 3 b.Bounds.span;
  Alcotest.(check (float 0.01)) "floor" 2.5 (Bounds.per_iteration b)

let test_bounds_resource_dominates () =
  (* A DOALL-ish body of 8 latency on 2 PEs: resource bound 4. *)
  let g = graph_of ~latencies:[| 4; 4 |] ~edges:[ (0, 0, 1); (0, 1, 1) ] in
  let b = Bounds.compute ~graph:g ~processors:2 in
  Alcotest.(check (float 0.01)) "resource 4" 4.0 b.Bounds.resource;
  Alcotest.(check (float 0.01)) "recurrence 4" 4.0 b.Bounds.recurrence

let test_bounds_makespan_floor () =
  let b = Bounds.compute ~graph:(fig7 ()) ~processors:2 in
  check_int "floor for 100 iters" (int_of_float (ceil (99.0 *. 2.5)) + 3)
    (Bounds.makespan_floor b ~iterations:100)

let test_bounds_dominated_by_schedules () =
  (* Every schedule we can produce respects the floor. *)
  List.iter
    (fun (g, p) ->
      let machine = machine ~p () in
      let b = Bounds.compute ~graph:g ~processors:p in
      let iterations = 40 in
      let ours =
        Mimd_core.Schedule.makespan
          (Mimd_core.Cyclic_sched.schedule_iterations ~graph:g ~machine ~iterations ())
      in
      let floor = Bounds.makespan_floor b ~iterations in
      check_bool "ours >= floor" true (ours >= floor);
      let e = Bounds.efficiency b ~iterations ~makespan:ours in
      check_bool "efficiency in (0,1]" true (e > 0.0 && e <= 1.0))
    [ (fig7 (), 2); (Mimd_workloads.Elliptic.graph (), 2); (two_cycle (), 3) ]

let prop_bounds_dominate_greedy =
  qtest ~count:40 "makespan floor holds for greedy schedules" gen_cyclic_graph
    print_graph_spec (fun spec ->
      let g = build_cyclic spec in
      let p = 3 in
      let b = Bounds.compute ~graph:g ~processors:p in
      let iterations = 15 in
      let makespan =
        Mimd_core.Schedule.makespan
          (Mimd_core.Cyclic_sched.schedule_iterations ~graph:g ~machine:(machine ~p ~k:2 ())
             ~iterations ())
      in
      makespan >= Bounds.makespan_floor b ~iterations)

(* ---------------------------------------------------------------- *)
(* Topology                                                          *)

let test_topology_crossbar () =
  check_int "always one hop" 1 (Topology.hops Topology.Crossbar ~processors:8 ~src:0 ~dst:7);
  check_int "diameter" 1 (Topology.diameter Topology.Crossbar ~processors:8)

let test_topology_ring () =
  check_int "adjacent" 1 (Topology.hops Topology.Ring ~processors:8 ~src:0 ~dst:1);
  check_int "wraps" 1 (Topology.hops Topology.Ring ~processors:8 ~src:0 ~dst:7);
  check_int "opposite" 4 (Topology.hops Topology.Ring ~processors:8 ~src:0 ~dst:4);
  check_int "diameter" 4 (Topology.diameter Topology.Ring ~processors:8)

let test_topology_mesh () =
  (* 2x4 mesh, row-major: 0 1 2 3 / 4 5 6 7. *)
  check_int "same row" 3 (Topology.hops (Topology.Mesh 4) ~processors:8 ~src:0 ~dst:3);
  check_int "manhattan" 4 (Topology.hops (Topology.Mesh 4) ~processors:8 ~src:0 ~dst:7);
  check_bool "bad width" true
    (match Topology.hops (Topology.Mesh 3) ~processors:8 ~src:0 ~dst:1 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_topology_hypercube () =
  check_int "one bit" 1 (Topology.hops Topology.Hypercube ~processors:8 ~src:0 ~dst:4);
  check_int "three bits" 3 (Topology.hops Topology.Hypercube ~processors:8 ~src:0 ~dst:7);
  check_int "diameter" 3 (Topology.diameter Topology.Hypercube ~processors:8)

let test_topology_rejects () =
  check_bool "src=dst" true
    (match Topology.hops Topology.Ring ~processors:4 ~src:1 ~dst:1 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "out of range" true
    (match Topology.hops Topology.Ring ~processors:4 ~src:0 ~dst:9 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_topology_links () =
  let links =
    Links.topology_aware ~shape:Topology.Ring ~processors:8 ~base:2 ~per_hop:3 ~mm:1 ~seed:0
  in
  check_int "adjacent = base" 2 (Links.sample links ~src:0 ~dst:1);
  check_int "opposite = base + 3 hops extra" 11 (Links.sample links ~src:0 ~dst:4)

let test_topology_links_hurt_more_with_distance () =
  (* The same schedule simulated on a ring is never faster than on a
     crossbar with the same base latency. *)
  let g = Gen.coupled_recurrences ~width:8 ~coupling:2 () in
  let machine = Mimd_machine.Config.make ~processors:8 ~comm_estimate:2 in
  let sched = Mimd_core.Cyclic_sched.schedule_iterations ~graph:g ~machine ~iterations:30 () in
  let run shape =
    (Mimd_sim.Exec.simulate_schedule ~schedule:sched
       ~links:(Links.topology_aware ~shape ~processors:8 ~base:2 ~per_hop:2 ~mm:1 ~seed:0)
       ())
      .Mimd_sim.Exec.makespan
  in
  check_bool "ring >= crossbar" true (run Topology.Ring >= run Topology.Crossbar)

(* ---------------------------------------------------------------- *)
(* Synthetic families                                                *)

let test_gen_chain_of_cycles () =
  let g = Gen.chain_of_cycles ~cycles:4 ~cycle_length:3 () in
  check_int "nodes" 12 (Graph.node_count g);
  check_bool "connected" true (Graph.is_connected g);
  Alcotest.(check (float 0.01)) "recurrence bound" 3.0 (Mimd_ddg.Reach.recurrence_bound g);
  let cls = Mimd_core.Classify.run g in
  check_int "all cyclic" 12 (List.length cls.Mimd_core.Classify.cyclic)

let test_gen_coupled () =
  let g = Gen.coupled_recurrences ~width:6 ~coupling:2 () in
  check_int "nodes" 12 (Graph.node_count g);
  check_bool "connected" true (Graph.is_connected g);
  check_bool "solvable" true
    (match Mimd_core.Cyclic_sched.solve ~graph:g ~machine:(machine ~p:6 ()) () with
    | _ -> true
    | exception _ -> false)

let test_gen_wide_body () =
  let g = Gen.wide_body ~width:5 ~depth:3 () in
  check_int "nodes" 13 (Graph.node_count g);
  let cls = Mimd_core.Classify.run g in
  check_int "all cyclic" 13 (List.length cls.Mimd_core.Classify.cyclic);
  (* DOACROSS serialises the whole body; ours exploits the width. *)
  let m = machine ~p:4 ~k:1 () in
  let ours =
    Mimd_core.Schedule.makespan
      (Mimd_core.Cyclic_sched.schedule_iterations ~graph:g ~machine:m ~iterations:50 ())
  in
  let doa =
    Mimd_doacross.Doacross.effective_makespan
      (Mimd_doacross.Reorder.best ~graph:g ~machine:m ())
      ~iterations:50
  in
  check_bool "ours < doacross" true (ours < doa)

let test_gen_stencil () =
  let g = Gen.stencil_1d ~points:6 () in
  check_int "nodes" 6 (Graph.node_count g);
  check_int "edges" 16 (Graph.edge_count g);
  Alcotest.(check (float 0.01)) "bound = 1 node" 1.0 (Mimd_ddg.Reach.recurrence_bound g)

let test_gen_rejects () =
  check_bool "bad params" true
    (match Gen.chain_of_cycles ~cycles:0 ~cycle_length:3 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ---------------------------------------------------------------- *)
(* Pattern statistics                                                *)

let test_pattern_stats_paper_claim () =
  (* "M is typically very small, less than 10 in all the examples we
     ran" — allow a little slack for our reconstructions. *)
  let rows = Mimd_experiments.Pattern_stats.paper_workloads () in
  check_int "five workloads" 5 (List.length rows);
  List.iter
    (fun (r : Mimd_experiments.Pattern_stats.row) ->
      match r.pattern with
      | Ok { stats; _ } ->
        check_bool (r.label ^ ": M <= 12") true (stats.iterations_touched <= 12)
      | Error cause -> Alcotest.failf "%s: %s" r.label cause)
    rows

let test_pattern_stats_random () =
  (* Disconnected Cyclic cores whose components advance at different
     rates, and connected cores whose SCCs do, have no joint pattern
     within the budget: one row per seed all the same, the unsettled
     ones naming their cause. *)
  let seeds = Mimd_experiments.Table1.select_seeds () in
  let rows = Mimd_experiments.Pattern_stats.random_loops () in
  check_bool "one row per seed" true
    (List.map (fun (r : Mimd_experiments.Pattern_stats.row) -> r.label) rows
    = List.map (Printf.sprintf "random-%d") seeds);
  let unsettled =
    List.filter_map
      (fun (r : Mimd_experiments.Pattern_stats.row) ->
        match r.pattern with
        | Ok { pattern = p; _ } ->
          check_bool (r.label ^ ": pattern sane") true
            (p.Mimd_core.Pattern.height >= 1 && p.iter_shift >= 1);
          None
        | Error cause ->
          check_bool (r.label ^ " names its cause: " ^ cause) true
            (String.starts_with ~prefix:"no pattern in 256 iters, " cause);
          Some r.label)
      rows
  in
  check_bool "the ten unsettled seeds" true
    (unsettled
    = List.map (Printf.sprintf "random-%d") [ 6; 10; 27; 28; 50; 61; 105; 113; 119; 127 ])

let test_scaling_renders () =
  List.iter
    (fun (id, s) -> check_bool (id ^ " renders") true (String.length s > 80))
    (Mimd_experiments.Scaling.all ())

(* ---------------------------------------------------------------- *)
(* Auto processor selection                                          *)

let test_auto_procs_fig7 () =
  let t =
    Mimd_core.Auto_procs.search ~max_processors:4 ~graph:(fig7 ()) ~comm_estimate:2 ()
  in
  check_int "curve length" 4 (List.length t.Mimd_core.Auto_procs.curve);
  (* fig7 on one PE runs at 5 cycles/iter; two PEs reach 3. *)
  let rate_at p =
    (List.find (fun (pt : Mimd_core.Auto_procs.point) -> pt.processors = p)
       t.Mimd_core.Auto_procs.curve)
      .Mimd_core.Auto_procs.rate
  in
  Alcotest.(check (float 0.001)) "p=1 sequential rate" 5.0 (rate_at 1);
  check_bool "p=2 improves" true (rate_at 2 < rate_at 1);
  check_bool "chosen within range" true
    (t.Mimd_core.Auto_procs.chosen.Mimd_core.Auto_procs.processors >= 1
    && t.Mimd_core.Auto_procs.chosen.Mimd_core.Auto_procs.processors <= 4)

let test_auto_procs_chain () =
  (* Four independent unit recurrences: the rate saturates at p = 4
     and the chosen p never exceeds what saturation needs. *)
  let g = Gen.chain_of_cycles ~cycles:4 ~cycle_length:1 () in
  let t = Mimd_core.Auto_procs.search ~max_processors:6 ~graph:g ~comm_estimate:1 () in
  let chosen = t.Mimd_core.Auto_procs.chosen in
  check_bool "no more processors than chains" true
    (chosen.Mimd_core.Auto_procs.processors <= 4);
  check_bool "render mentions chosen" true
    (String.length (Mimd_core.Auto_procs.render t) > 50)

let test_auto_procs_rejects () =
  check_bool "bad params" true
    (match Mimd_core.Auto_procs.search ~max_processors:0 ~graph:(fig7 ()) ~comm_estimate:2 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let suite =
  [
    Alcotest.test_case "bounds: fig7" `Quick test_bounds_fig7;
    Alcotest.test_case "bounds: resource bound" `Quick test_bounds_resource_dominates;
    Alcotest.test_case "bounds: makespan floor" `Quick test_bounds_makespan_floor;
    Alcotest.test_case "bounds: dominated by real schedules" `Quick test_bounds_dominated_by_schedules;
    prop_bounds_dominate_greedy;
    Alcotest.test_case "topology: crossbar" `Quick test_topology_crossbar;
    Alcotest.test_case "topology: ring" `Quick test_topology_ring;
    Alcotest.test_case "topology: mesh" `Quick test_topology_mesh;
    Alcotest.test_case "topology: hypercube" `Quick test_topology_hypercube;
    Alcotest.test_case "topology: rejects" `Quick test_topology_rejects;
    Alcotest.test_case "topology: links pricing" `Quick test_topology_links;
    Alcotest.test_case "topology: distance hurts" `Quick test_topology_links_hurt_more_with_distance;
    Alcotest.test_case "gen: chain of cycles" `Quick test_gen_chain_of_cycles;
    Alcotest.test_case "gen: coupled recurrences" `Quick test_gen_coupled;
    Alcotest.test_case "gen: wide body beats doacross" `Quick test_gen_wide_body;
    Alcotest.test_case "gen: stencil" `Quick test_gen_stencil;
    Alcotest.test_case "gen: rejects bad params" `Quick test_gen_rejects;
    Alcotest.test_case "auto procs: fig7 curve" `Quick test_auto_procs_fig7;
    Alcotest.test_case "auto procs: saturation" `Quick test_auto_procs_chain;
    Alcotest.test_case "auto procs: rejects" `Quick test_auto_procs_rejects;
    Alcotest.test_case "pattern stats: paper M claim" `Slow test_pattern_stats_paper_claim;
    Alcotest.test_case "pattern stats: random loops" `Slow test_pattern_stats_random;
    Alcotest.test_case "scaling experiments render" `Slow test_scaling_renders;
  ]
