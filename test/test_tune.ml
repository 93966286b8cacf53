(* lib/tune: incremental recompilation, plus the scalar k that
   [--auto-k] derives from one link probe.  The load-bearing
   invariant: an incremental recompile is bit-identical to the
   monolithic pipeline at the same machine. *)

open Helpers
module Full_sched = Mimd_core.Full_sched
module Incr = Mimd_tune.Incr
module Linkprobe = Mimd_dist.Linkprobe
module Json = Mimd_server.Json

(* ---------------------------------------------------------------- *)
(* Incr                                                              *)

(* [f ()] with tracing on, and the names of the spans it completed. *)
let traced_span_names f =
  with_tracing @@ fun () ->
  let r = f () in
  ( r,
    List.filter_map
      (fun ev -> Option.bind (Json.member "name" ev) Json.to_string_opt)
      (completes (export_events ())) )

(* The prefix Incr reuses is exactly unwind + classify: a cold compile
   runs both stages, an incremental one runs neither.  Counting stages
   rather than timing them keeps this deterministic. *)
let check_prefix_stages ~label ~expected names =
  List.iter
    (fun stage ->
      check_bool (Printf.sprintf "%s compile runs %s" label stage) expected
        (List.mem stage names))
    [ "compile.unwind"; "compile.classify" ]

let test_incr_reuses_prep () =
  let t = Incr.create () in
  let g = fig7 () in
  let m2 = machine ~p:2 ~k:2 () in
  let (full_cold, out_cold), cold_spans =
    traced_span_names (fun () -> Incr.compile t ~graph:g ~machine:m2 ~iterations:30 ())
  in
  check_string "cold first" "cold" (Incr.outcome_name out_cold);
  check_prefix_stages ~label:"cold" ~expected:true cold_spans;
  (* k-only change *)
  let m9 = machine ~p:2 ~k:9 () in
  let (full_inc, out_inc), inc_spans =
    traced_span_names (fun () -> Incr.compile t ~graph:g ~machine:m9 ~iterations:30 ())
  in
  check_string "incremental second" "incremental" (Incr.outcome_name out_inc);
  check_prefix_stages ~label:"incremental" ~expected:false inc_spans;
  let s = Incr.stats t in
  check_int "one hit" 1 s.Incr.hits;
  check_int "one miss" 1 s.Incr.misses;
  check_int "one entry" 1 s.Incr.entries;
  (* and both results are exactly what the monolithic pipeline gives *)
  check_string "cold == Full_sched.run"
    (Full_sched.output_fingerprint (Full_sched.run ~graph:g ~machine:m2 ~iterations:30 ()))
    (Full_sched.output_fingerprint full_cold);
  check_string "incremental == Full_sched.run"
    (Full_sched.output_fingerprint (Full_sched.run ~graph:g ~machine:m9 ~iterations:30 ()))
    (Full_sched.output_fingerprint full_inc)

let test_incr_k_only_recompile () =
  let t = Incr.create () in
  let g = Mimd_workloads.Elliptic.graph () in
  ignore (Incr.compile t ~graph:g ~machine:(machine ~p:3 ~k:2 ()) ~iterations:20 ());
  let m3 = machine ~p:3 ~k:3 () in
  let full, outcome = Incr.compile t ~graph:g ~machine:m3 ~iterations:20 () in
  check_string "k-only change is incremental" "incremental" (Incr.outcome_name outcome);
  check_string "same as a cold Full_sched.run"
    (Full_sched.output_fingerprint (Full_sched.run ~graph:g ~machine:m3 ~iterations:20 ()))
    (Full_sched.output_fingerprint full)

let test_incr_capacity_evicts () =
  let t = Incr.create ~capacity:1 () in
  let m = machine () in
  ignore (Incr.compile t ~graph:(fig7 ()) ~machine:m ~iterations:10 ());
  ignore (Incr.compile t ~graph:(self_loop ()) ~machine:m ~iterations:10 ());
  check_int "FIFO kept one" 1 (Incr.stats t).Incr.entries;
  ignore (Incr.compile t ~graph:(fig7 ()) ~machine:m ~iterations:10 ());
  check_int "evicted entry is a miss again" 3 (Incr.stats t).Incr.misses

(* ---------------------------------------------------------------- *)
(* Cache keys                                                        *)

let test_cache_keys () =
  let module Cache = Mimd_runtime.Schedule_cache in
  let g = fig7 () in
  let key k = Cache.fingerprint ~graph:g ~machine:(machine ~p:2 ~k ()) ~iterations:10 () in
  check_string "same machine, same key" (key 2) (key 2);
  check_bool "a different k gets its own key" true (key 2 <> key 3);
  (* graph_fingerprint — the Incr sub-key — reads no machine at all:
     it only tells graphs apart. *)
  check_string "graph key is deterministic"
    (Cache.graph_fingerprint ~graph:g ())
    (Cache.graph_fingerprint ~graph:(fig7 ()) ());
  check_bool "graph key tells graphs apart" true
    (Cache.graph_fingerprint ~graph:g () <> Cache.graph_fingerprint ~graph:(self_loop ()) ())

(* ---------------------------------------------------------------- *)
(* The k --auto-k derives from a probe                               *)

let probe_of effective_ks =
  {
    Linkprobe.cycle_ns = 100.0;
    links =
      List.mapi
        (fun i effective_k ->
          { Linkprobe.a = 0; b = i + 1; rtt_ns = 0.0; one_way_ns = 0.0; effective_k })
        effective_ks;
  }

let test_measured_k () =
  let k ks = Linkprobe.measured_k (probe_of ks) in
  check_int "rounds down" 7 (k [ 7.4 ]);
  check_int "rounds up" 8 (k [ 7.5 ]);
  check_int "the dearest link sets k" 12 (k [ 3.0; 11.6; 5.2 ]);
  check_int "floor of 1" 1 (k [ 0.2 ]);
  check_int "no links: floor of 1" 1 (k [])

let suite =
  [
    ("incr reuses prep", `Quick, test_incr_reuses_prep);
    ("incr k-only recompile", `Quick, test_incr_k_only_recompile);
    ("incr capacity", `Quick, test_incr_capacity_evicts);
    ("cache keys", `Quick, test_cache_keys);
    ("measured k from a probe", `Quick, test_measured_k);
  ]
