(* Real-domain runtime: differential correctness of the compiled
   evaluator, on domains and inline, against the sequential interpreter
   (the spec, instance by instance), ring links between domains, frame matching
   over links, stall detection, the rule that ends a run (Collect) and
   the schedule cache. *)

open Helpers
module Parser = Mimd_loop_ir.Parser
module Depend = Mimd_loop_ir.Depend
module Interp = Mimd_loop_ir.Interp
module Program = Mimd_codegen.Program
module Mesh_sock = Mimd_runtime.Mesh_sock
module Wire = Mimd_runtime.Wire
module Watchdog = Mimd_runtime.Watchdog
module Value_run = Mimd_runtime.Value_run
module Schedule_cache = Mimd_runtime.Schedule_cache
module Lower = Mimd_runtime.Lower
module Exec_compiled = Mimd_runtime.Exec_compiled

(* ---------------------------------------------------------------- *)
(* Ring links between domains                                         *)

(* A ring holds this many 33-byte Single frames, and no more. *)
let frames_per_ring = Mesh_sock.buffer_bytes / 33

let with_mesh procs f =
  let mesh = Mesh_sock.create ~procs () in
  Fun.protect ~finally:(fun () -> Mesh_sock.close_all mesh) (fun () -> f mesh)

(* Pull [n] frames: whether they are frames 0 .. n - 1, in order. *)
let pulls_in_order link n =
  let ok = ref true in
  for i = 0 to n - 1 do
    match Mesh_sock.Link.pull link with
    | Ok (tag, Value_run.Single v) -> if tag <> (0, i) || v <> float_of_int i then ok := false
    | Ok (_, Value_run.Pack _) -> Alcotest.fail "a Pack where a Single was sent"
    | Error e -> Alcotest.failf "pull: %s" (Wire.error_to_string e)
  done;
  !ok

(* Frame [i] carries tag (0, i) and value [i]. *)
let send_frames link ~sent n =
  for i = 0 to n - 1 do
    Mesh_sock.Link.send link ~tag:(0, i) (Value_run.Single (float_of_int i));
    Atomic.incr sent
  done

(* Wait (5 s at most) for [count] to reach [n], then 50 ms more: its
   value then, [n] when the counting side stopped there. *)
let stops_at count n =
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Atomic.get count < n && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Unix.sleepf 0.05;
  Atomic.get count

let test_ring_fifo_across_wrap () =
  (* Three rings' worth of frames through one ring while the reader
     keeps up: 33 does not divide the ring, so frames straddle the
     wrap, and every one must arrive whole and in order. *)
  with_mesh 2 @@ fun mesh ->
  let n = (3 * frames_per_ring) + 7 in
  let tx = Mesh_sock.ring_link mesh ~proc:0 ~peer:1 in
  let rx = Mesh_sock.ring_link mesh ~proc:1 ~peer:0 in
  let producer = Domain.spawn (fun () -> send_frames tx ~sent:(Atomic.make 0) n) in
  let in_order = pulls_in_order rx n in
  Domain.join producer;
  check_bool (Printf.sprintf "%d frames in send order" n) true in_order

let test_ring_full_parks_writer () =
  (* Twice a ring's worth with no reader: the writer fills the ring,
     parks, and finishes only once the reader drains it. *)
  with_mesh 2 @@ fun mesh ->
  let n = 2 * frames_per_ring in
  let tx = Mesh_sock.ring_link mesh ~proc:0 ~peer:1 in
  let rx = Mesh_sock.ring_link mesh ~proc:1 ~peer:0 in
  let sent = Atomic.make 0 in
  let producer = Domain.spawn (fun () -> send_frames tx ~sent n) in
  check_int "the writer stops when the ring is full" frames_per_ring
    (stops_at sent frames_per_ring);
  let in_order = pulls_in_order rx n in
  Domain.join producer;
  check_int "then sends the rest" n (Atomic.get sent);
  check_bool "every frame in order" true in_order

let test_ring_cancel_wakes_waiters () =
  (* PE 0 writes to PE 1, which never reads, until PE 0 parks on the
     full ring; PE 2 parks reading from PE 1, which never sends.  One
     cancel must wake both with Link_down, well within 5 s: a waiter
     that stays parked fails the test rather than hanging it. *)
  with_mesh 3 @@ fun mesh ->
  let sent = Atomic.make 0 and ended = Atomic.make 0 in
  let down f =
    Domain.spawn (fun () ->
        let r =
          match f () with
          | () -> None
          | exception Mesh_sock.Link_down { proc; peer; _ } -> Some (proc, peer)
        in
        Atomic.incr ended;
        r)
  in
  let writer =
    let chans = Mesh_sock.row_chans (Mesh_sock.ring_row mesh ~proc:0) in
    down (fun () ->
        while true do
          chans.Value_run.send ~dst:1 ~tag:(0, 0) (Value_run.Single 0.0);
          Atomic.incr sent
        done)
  in
  let reader =
    let chans = Mesh_sock.row_chans (Mesh_sock.ring_row mesh ~proc:2) in
    down (fun () -> ignore (chans.Value_run.recv ~src:1 ~tag:(0, 0)))
  in
  check_int "the writer filled the ring" frames_per_ring (stops_at sent frames_per_ring);
  Mesh_sock.cancel mesh;
  check_int "both waiters woken" 2 (stops_at ended 2);
  check_bool "parked writer woken with Link_down" true (Domain.join writer = Some (0, 1));
  check_bool "parked reader woken with Link_down" true (Domain.join reader = Some (2, 1))

(* ---------------------------------------------------------------- *)
(* Value_run.of_links: the one frame-matching rule                    *)

(* Frame [k] of any source carries tag (k mod 3, k / 3), so every
   source sends the same tags and the stash must key by source too. *)
let link_tag k = (k mod 3, k / 3)

(* A fake in-memory transport: [sent.(src)] lists the keys source
   [src] sent, in its send (FIFO) order, and [order] is the order the
   consumer receives its (src, key) frames in.  Every recv must return
   its own frame object, and the links must drain exactly. *)
let prop_links_match_by_tag (sent, order) =
  let frames =
    Array.of_list
      (List.mapi
         (fun src keys ->
           Array.init (List.length keys) (fun k ->
               (link_tag k, Value_run.Single (float_of_int ((100 * src) + k)))))
         sent)
  in
  let links =
    Array.mapi
      (fun src keys -> Queue.of_seq (Seq.map (fun k -> frames.(src).(k)) (List.to_seq keys)))
      (Array.of_list sent)
  in
  let chans =
    Value_run.of_links ~procs:(Array.length links)
      ~send:(fun ~dst:_ ~tag:_ _ -> ())
      ~next:(fun ~src -> Queue.pop links.(src))
  in
  List.for_all
    (fun (src, k) -> chans.Value_run.recv ~src ~tag:(link_tag k) == snd frames.(src).(k))
    order
  && Array.for_all Queue.is_empty links

let gen_links =
  QCheck2.Gen.(
    let* sources = int_range 1 4 in
    let* sent =
      list_repeat sources
        (let* n = int_range 0 12 in
         shuffle_l (List.init n Fun.id))
    in
    let+ order =
      shuffle_l (List.concat (List.mapi (fun src keys -> List.map (fun k -> (src, k)) keys) sent))
    in
    (sent, order))

let print_links (sent, order) =
  Printf.sprintf "sent %s; received %s"
    (String.concat " | "
       (List.map (fun keys -> String.concat "," (List.map string_of_int keys)) sent))
    (String.concat " " (List.map (fun (src, k) -> Printf.sprintf "%d:%d" src k) order))

(* Minor-heap words per in-order frame through the builder, over a
   transport that hands out prebuilt frames.  Measured 0.00 (the only
   allocation is the boxed result of [Gc.minor_words]); any per-frame
   block costs at least 2 words, so the 0.1 bound catches one. *)
let test_links_minor_words () =
  let n = 10_000 in
  let frames = Array.init n (fun k -> (link_tag k, Value_run.Single (float_of_int k))) in
  let next = ref 0 in
  let chans =
    Value_run.of_links ~procs:2
      ~send:(fun ~dst:_ ~tag:_ _ -> ())
      ~next:(fun ~src:_ ->
        let frame = frames.(!next) in
        incr next;
        frame)
  in
  let tags = Array.map fst frames in
  let w0 = Gc.minor_words () in
  for k = 0 to n - 1 do
    ignore (chans.Value_run.recv ~src:1 ~tag:tags.(k))
  done;
  let per_frame = (Gc.minor_words () -. w0) /. float_of_int n in
  if per_frame > 0.1 then
    Alcotest.failf "Value_run.of_links: %.2f minor words per in-order frame (bound 0.1)"
      per_frame

(* Minor-heap words of one [Lower.run] on ewf as the exec benchmark
   compiles it (p=2 k=2 n=1000, 17000 instances): 42786 (2.5 per
   instance: one wire tag per message end, the read plans and small
   arrays; the flat arrays themselves are too large for the minor
   heap) when the bound was set, 10% below it.  The boxed form it
   replaced, one record per instruction, cost 742435. *)
let test_lower_minor_words () =
  let flat, program, _ = ewf_benchmark_shape () in
  let w0 = Gc.minor_words () in
  let lowered = Lower.run ~loop:flat ~program () in
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity lowered);
  if words > 47_065.0 then
    Alcotest.failf "Lower.run: %.0f minor words on ewf n=1000 (bound 47065)" words

(* ---------------------------------------------------------------- *)
(* Differential execution: domains = inline = Interp, every instance  *)

let compile ?(p = 2) ?(k = 2) ~iterations loop =
  let { Depend.loop = flat; graph; _ } = Depend.analyze loop in
  let machine = machine ~p ~k () in
  let schedule = Mimd_core.Cyclic_sched.schedule_iterations ~graph ~machine ~iterations () in
  (flat, Mimd_codegen.From_schedule.run schedule)

(* Run [program] on the compiled domain runtime and inline, and require
   both to match the sequential interpreter instance by instance and in
   final memory, bit for bit.  [prelower] hands both runs an
   already-lowered form through [~lowered], the path the socket runner
   takes. *)
let check_runtime ?(prelower = false) ~name ~iterations ~flat program =
  let lowered = if prelower then Some (Lower.run ~loop:flat ~program ()) else None in
  let spec = Value_run.spec ~loop:flat ~iterations in
  let check label (outcome : Value_run.outcome) =
    (match Value_run.check_instances ~spec outcome.Value_run.instances with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: %s instances vs interp: %s" name label e);
    match Value_run.check_against_sequential ~loop:flat ~iterations outcome with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: %s final memory vs interp: %s" name label e
  in
  let runtime = Exec_compiled.run ?lowered ~loop:flat ~program () in
  check "domains" runtime;
  check "inline" (Exec_compiled.run_inline ?lowered ~loop:flat ~program ());
  check_bool (name ^ ": ran on >= 1 domain") true (runtime.Value_run.domains >= 1)

let differential ?prelower ~name ?(p = 2) ?(k = 2) ?(iterations = 20) loop =
  let flat, program = compile ~p ~k ~iterations loop in
  check_runtime ?prelower ~name ~iterations ~flat program

let test_benchmark_shape () =
  (* ewf at p=2, n=1000, the exec benchmark's largest op, on domains
     and inline; the socket leg is in the dist suite. *)
  let flat, program, iterations = ewf_benchmark_shape () in
  check_runtime ~name:"ewf n=1000" ~iterations ~flat program

let test_differential_paper_workloads () =
  List.iter
    (fun (name, src) -> differential ~name (Parser.parse src))
    [
      ("fig1", Mimd_workloads.Fig1.source);
      ("fig7", Mimd_workloads.Fig7.source);
      ("elliptic", Mimd_workloads.Elliptic.source);
    ]

let test_differential_more_processors () =
  List.iter
    (fun (name, src) -> differential ~name ~p:4 (Parser.parse src))
    [ ("fig7 on 4 PEs", Mimd_workloads.Fig7.source); ("elliptic on 4 PEs", Mimd_workloads.Elliptic.source) ]

let test_differential_random_loops () =
  (* >= 20 seeded Random_loop instances, alternating processor counts. *)
  for seed = 1 to 20 do
    let loop = Mimd_workloads.Random_loop.generate_loop ~seed () in
    let p = 2 + (seed mod 3) in
    differential ~name:(Printf.sprintf "random seed %d" seed) ~p ~iterations:12 loop
  done

let test_differential_3_and_4_domains () =
  (* Odd and even domain counts stress different schedule shapes; only
     run the counts this machine can actually execute in parallel. *)
  let counts = List.filter (fun p -> p <= Domain.recommended_domain_count ()) [ 3; 4 ] in
  List.iter
    (fun p ->
      List.iter
        (fun (name, src) ->
          differential
            ~name:(Printf.sprintf "%s on %d domains" name p)
            ~p ~iterations:15 (Parser.parse src))
        [
          ("fig1", Mimd_workloads.Fig1.source);
          ("fig7", Mimd_workloads.Fig7.source);
          ("elliptic", Mimd_workloads.Elliptic.source);
        ])
    counts

let test_single_domain () =
  differential ~name:"fig7 on 1 domain" ~p:1 (Parser.parse Mimd_workloads.Fig7.source)

let test_full_sched_programs () =
  (* Programs generated from the full pattern-based pipeline (Flow
     processors and all), not just the folded greedy. *)
  let loop = Parser.parse Mimd_workloads.Fig1.source in
  let graph = (Depend.analyze loop).Depend.graph in
  let machine = machine ~p:2 ~k:2 () in
  let full = Mimd_core.Full_sched.run ~graph ~machine ~iterations:15 () in
  let program = Mimd_codegen.From_schedule.run full.Mimd_core.Full_sched.schedule in
  let runtime = Exec_compiled.run ~loop ~program () in
  match Value_run.check_against_sequential ~loop ~iterations:15 runtime with
  | Ok () -> ()
  | Error e -> Alcotest.failf "full-sched program: %s" e

(* ---------------------------------------------------------------- *)
(* Stalls and failures on domains                                     *)

(* A correct program with its first Send removed: the matching recv
   can never complete. *)
let program_missing_a_send () =
  let loop = Parser.parse "for i = 1 to n { X[i] = X[i-1] + 1; Y[i] = X[i] * 2; }" in
  let flat, program = compile ~k:0 ~iterations:10 loop in
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
  (flat, program, { program with Program.programs })

let test_watchdog_detects_deadlock () =
  (* The run must end in Runtime_deadlock, not hang, and each domain's
     snapshot is the pc it stopped at: the same as the inline run's,
     which sees the stall at once. *)
  let flat, _, broken = program_missing_a_send () in
  let inline =
    match Exec_compiled.run_inline ~loop:flat ~program:broken () with
    | _ -> Alcotest.fail "broken program terminated normally inline"
    | exception Watchdog.Runtime_deadlock stall -> stall.Watchdog.snapshots
  in
  let t0 = Unix.gettimeofday () in
  match Exec_compiled.run ~timeout:0.3 ~loop:flat ~program:broken () with
  | _ -> Alcotest.fail "broken program terminated normally"
  | exception Watchdog.Runtime_deadlock stall ->
    let elapsed = Unix.gettimeofday () -. t0 in
    check_bool "terminated within a few timeouts" true (elapsed < 3.0);
    check_int "one snapshot per domain" (List.length inline) (List.length stall.Watchdog.snapshots);
    List.iter2
      (fun (d : Watchdog.snapshot) (i : Watchdog.snapshot) ->
        check_int (Printf.sprintf "PE%d retired" d.proc) i.retired d.retired;
        Alcotest.(check (option string)) (Printf.sprintf "PE%d current" d.proc) i.current d.current)
      stall.Watchdog.snapshots inline

let test_inline_deadlock_is_structured () =
  (* Inline, the stall is known at once: every unfinished PE is parked
     on a frame no one will send.  One snapshot per PE, and the stuck
     one names the Recv it waits on. *)
  let flat, program, broken = program_missing_a_send () in
  match Exec_compiled.run_inline ~loop:flat ~program:broken () with
  | _ -> Alcotest.fail "broken program terminated normally"
  | exception Watchdog.Runtime_deadlock stall ->
    check_int "one snapshot per PE" program.Program.processors
      (List.length stall.Watchdog.snapshots);
    check_bool "a PE is stuck on a recv" true
      (List.exists
         (fun s ->
           match s.Watchdog.current with
           | Some instr -> String.starts_with ~prefix:"recv" (String.lowercase_ascii instr)
           | None -> false)
         stall.Watchdog.snapshots);
    (* [retired] is the pc the PE stopped at: on the PE whose Recv lost
       its Send, the index of that Recv. *)
    let orphan j = function
      | Program.Recv { tag; src } ->
        not
          (List.mem (Program.Send { tag; dst = j }) broken.Program.programs.(src))
      | _ -> false
    in
    let blocking = Array.mapi (fun j -> List.find_index (orphan j)) broken.Program.programs in
    let j = Option.get (Array.find_index Option.is_some blocking) in
    check_int
      (Printf.sprintf "PE%d retired up to its blocking recv" j)
      (Option.get blocking.(j)) (List.nth stall.Watchdog.snapshots j).Watchdog.retired

let test_watchdog_quiet_on_healthy_run () =
  let loop = Parser.parse Mimd_workloads.Fig7.source in
  let flat, program = compile ~iterations:30 loop in
  let outcome = Exec_compiled.run ~timeout:30.0 ~loop:flat ~program () in
  check_bool "finished" true (Value_run.instance_count outcome.Value_run.instances > 0)

let test_runs_leave_no_link () =
  (* Twenty runs, the tenth a stall, the fifteenth a domain that
     raises: each closes its endpoints and its pipe and unmaps its
     rings on the way out. *)
  let loop = Parser.parse Mimd_workloads.Fig7.source in
  let flat, program = compile ~p:3 ~iterations:30 loop in
  let bflat, _, broken = program_missing_a_send () in
  let fds = open_fds () and rings = ring_mappings "self" in
  for i = 1 to 20 do
    if i = 10 then
      match Exec_compiled.run ~timeout:0.3 ~loop:bflat ~program:broken () with
      | _ -> Alcotest.fail "broken program terminated normally"
      | exception Watchdog.Runtime_deadlock _ -> ()
    else if i = 15 then
      match Exec_compiled.run ~init:(fun _ _ -> failwith "no memory") ~loop:flat ~program () with
      | _ -> Alcotest.fail "a failing init went unnoticed"
      | exception Failure _ -> ()
    else ignore (Exec_compiled.run ~loop:flat ~program ())
  done;
  check_int "descriptors after 20 runs" fds (open_fds ());
  check_int "ring mappings after 20 runs" rings (ring_mappings "self")

let test_failed_domain_named () =
  (* Initial memory that fails only for a cell PE 1 prefills: domain 1
     fails on its own, the cancel tears its peers down, and the run
     names domain 1, never a torn-down peer. *)
  let loop = Parser.parse Mimd_workloads.Fig7.source in
  let flat, program = compile ~p:3 ~iterations:30 loop in
  let lowered = Lower.run ~loop:flat ~program () in
  let cells j =
    let pre = lowered.Lower.procs.(j).Lower.prefill in
    List.init (Array.length pre / 3) (fun f ->
        (lowered.Lower.array_names.(pre.(3 * f)), pre.((3 * f) + 1)))
  in
  let others = List.concat_map cells [ 0; 2 ] in
  let cell = List.find (fun c -> not (List.mem c others)) (cells 1) in
  let init a i = if (a, i) = cell then failwith "unreadable cell" else Interp.init a i in
  match Exec_compiled.run ~init ~lowered ~loop:flat ~program () with
  | _ -> Alcotest.fail "a failing init went unnoticed"
  | exception Failure msg ->
    check_string "domain 1's own failure"
      "runtime: domain 1 failed: Failure(\"unreadable cell\")" msg

(* ---------------------------------------------------------------- *)
(* Collect: how a run ends, with no process or domain                 *)

module Collect = Mimd_runtime.Collect

let bound = 1_000_000_000

(* Feed [events] at 1 ns apart from a start at 0. *)
let collect ?(procs = 4) events =
  let c, _ =
    List.fold_left
      (fun (c, now) e -> (Collect.step c ~now e, now + 1))
      (Collect.start ~procs ~timeout:1.0 ~now:0, 1)
      events
  in
  Collect.next c

let rec permutations = function
  | [] -> [ [] ]
  | l ->
    List.concat_map
      (fun x -> List.map (List.cons x) (permutations (List.filter (( <> ) x) l)))
      l

let test_collect_names_own_failure () =
  (* PE 2 fails on its own; PEs 0, 1 and 3 see its death as a link
     down.  Every arrival order names PE 2. *)
  let events =
    [
      Collect.Symptom (0, "link down 0");
      Symptom (1, "link down 1");
      Own (2, "own 2");
      Symptom (3, "link down 3");
    ]
  in
  let orders = permutations events in
  check_int "24 orders" 24 (List.length orders);
  List.iter
    (fun order ->
      match collect order with
      | Collect.End (Failed f) -> check_string "the own failure" "own 2" f
      | _ -> Alcotest.fail "a run with a failure did not fail")
    orders;
  (* Symptoms only: the lowest-numbered. *)
  (match collect ~procs:2 [ Symptom (1, "b"); Symptom (0, "a") ] with
  | Collect.End (Failed f) -> check_string "lowest symptom" "a" f
  | _ -> Alcotest.fail "symptoms did not fail");
  (* Two own failures: the lowest-numbered, whichever came first. *)
  match collect ~procs:3 [ Own (2, "c"); Report 0; Own (1, "b") ] with
  | Collect.End (Failed f) -> check_string "lowest own" "b" f
  | _ -> Alcotest.fail "own failures did not fail"

let test_collect_quiet_is_a_stall () =
  let c = Collect.step (Collect.start ~procs:3 ~timeout:1.0 ~now:0) ~now:10 (Report 1) in
  (match Collect.next c with
  | Collect.Wait { pending; until } ->
    Alcotest.(check (list int)) "pending" [ 0; 2 ] pending;
    check_int "one bound after the last report" (10 + bound) until
  | _ -> Alcotest.fail "not waiting");
  (* A bound too long for an int of nanoseconds is capped, not wrapped. *)
  (match Collect.next (Collect.start ~procs:1 ~timeout:1e12 ~now:10) with
  | Collect.Wait { until; _ } -> check_bool "a huge bound's deadline is ahead" true (until > 10)
  | _ -> Alcotest.fail "not waiting");
  (* A quiet wake before the deadline changes nothing. *)
  (match Collect.next (Collect.step c ~now:(bound - 1) Quiet) with
  | Collect.Wait _ -> ()
  | _ -> Alcotest.fail "an early quiet ended the run");
  match Collect.next (Collect.step c ~now:(10 + bound) Quiet) with
  | Collect.End (Stalled waiting) -> Alcotest.(check (list int)) "stalled on" [ 0; 2 ] waiting
  | _ -> Alcotest.fail "a quiet bound is not a stall"

let test_collect_run_on_a_scripted_wait () =
  (* A virtual clock: an interrupted wait returns early with nothing,
     PE 0 reports, and PE 1 never does.  The run is a stall on PE 1,
     exactly one bound after PE 0's report. *)
  let clock = ref 0 and script = ref [ (100, []); (200, [ Collect.Report 0 ]) ] in
  let wait _ seconds =
    match !script with
    | (dt, events) :: rest ->
      script := rest;
      clock := !clock + dt;
      events
    | [] ->
      clock := !clock + int_of_float (seconds *. 1e9);
      []
  in
  match Collect.run ~procs:2 ~timeout:1.0 ~now:(fun () -> !clock) ~wait with
  | Collect.Stalled waiting ->
    Alcotest.(check (list int)) "stalled on" [ 1 ] waiting;
    check_int "one bound after the report" (300 + bound) !clock
  | _ -> Alcotest.fail "not a stall"

let test_collect_failure_extends_once () =
  let c = Collect.start ~procs:4 ~timeout:1.0 ~now:0 in
  let c = Collect.step c ~now:100 (Own (0, "own")) in
  let until c = match Collect.next c with Collect.Wait { until; _ } -> until | _ -> -1 in
  check_int "one bound after the first failure" (100 + bound) (until c);
  let c = Collect.step c ~now:200 (Symptom (1, "link down")) in
  check_int "a later failure does not extend" (100 + bound) (until c);
  (match Collect.next (Collect.step c ~now:(100 + bound) Quiet) with
  | Collect.End (Failed f) -> check_string "the own failure once the bound ran out" "own" f
  | _ -> Alcotest.fail "a quiet bound after a failure is not that failure");
  (* A report after the failure does not extend it either. *)
  check_int "a report does not extend" (100 + bound) (until (Collect.step c ~now:300 (Report 2)))

let test_collect_done () =
  (match collect ~procs:3 [ Report 2; Report 0; Report 0; Report 1 ] with
  | Collect.End Done -> ()
  | _ -> Alcotest.fail "every PE reported but the run is not done");
  match collect ~procs:2 [ Report 0; Own (0, "late") ] with
  | Collect.Wait { pending = [ 1 ]; _ } -> ()
  | _ -> Alcotest.fail "a second event from PE 0 counted"

(* ---------------------------------------------------------------- *)
(* Schedule cache                                                     *)

(* The compile service's tier-1 path: look the key up, schedule and
   store on a miss. *)
let cached cache ~graph ~machine ~iterations =
  let key = Schedule_cache.fingerprint ~graph ~machine ~iterations () in
  match Schedule_cache.find cache ~key with
  | Some full -> full
  | None ->
    let full = Mimd_core.Full_sched.run ~graph ~machine ~iterations () in
    Schedule_cache.add cache ~key full;
    full

let test_schedule_cache_hits () =
  let cache = Schedule_cache.create () in
  let graph = fig7 () in
  let machine = machine () in
  let a = cached cache ~graph ~machine ~iterations:30 in
  let b = cached cache ~graph ~machine ~iterations:30 in
  check_bool "second lookup is the memoized schedule" true (a == b);
  let st = Schedule_cache.stats cache in
  check_int "one hit" 1 st.Schedule_cache.hits;
  check_int "one miss" 1 st.Schedule_cache.misses;
  check_int "one entry" 1 st.Schedule_cache.entries;
  (* different request -> different entry *)
  let c = cached cache ~graph ~machine ~iterations:31 in
  check_bool "different trip count misses" true (c != b);
  check_int "two entries" 2 (Schedule_cache.stats cache).Schedule_cache.entries

let test_schedule_cache_key_semantics () =
  let graph = fig7 () in
  let machine = machine () in
  let key a b = Schedule_cache.fingerprint ~graph ~machine:a ~iterations:b () in
  check_bool "same request, same key" true (key machine 10 = key machine 10);
  check_bool "trip count in key" true (key machine 10 <> key machine 11);
  check_bool "machine in key" true
    (key machine 10 <> key (Helpers.machine ~p:3 ()) 10);
  (* structurally identical graphs built separately agree *)
  let g2 = fig7 () in
  check_bool "structural graph key" true
    (Schedule_cache.fingerprint ~graph:g2 ~machine ~iterations:10 () = key machine 10)

(* The cache keys are content addresses: Disk_cache files are named by
   [fingerprint], and Incr prepares under [graph_fingerprint].  Pin the
   exact bytes so a refactor of the serializer cannot silently orphan
   every stored entry. *)
let test_schedule_cache_key_bytes_pinned () =
  let graph = Mimd_workloads.Elliptic.graph () in
  check_string "ewf p=2 k=2 n=60 fingerprint" "ad2dba60952a27e7725fa6bc91181ec6"
    (Schedule_cache.fingerprint ~graph ~machine:(machine ~p:2 ~k:2 ()) ~iterations:60 ());
  check_string "ewf graph fingerprint" "da4ac5463d380ef32b0fc05cf3b61cf0" (Schedule_cache.graph_fingerprint ~graph ())

let test_schedule_cache_eviction () =
  let cache = Schedule_cache.create ~capacity:2 () in
  let machine = machine () in
  let graph = fig7 () in
  List.iter (fun n -> ignore (cached cache ~graph ~machine ~iterations:n)) [ 10; 11; 12; 13 ];
  let st = Schedule_cache.stats cache in
  check_bool "bounded" true (st.Schedule_cache.entries <= 2);
  check_int "two evictions" 2 st.Schedule_cache.evictions;
  let present n =
    Schedule_cache.find cache ~key:(Schedule_cache.fingerprint ~graph ~machine ~iterations:n ())
    <> None
  in
  check_bool "least recently used evicted" false (present 10);
  check_bool "most recent kept" true (present 13);
  Schedule_cache.clear cache;
  check_int "cleared" 0 (Schedule_cache.stats cache).Schedule_cache.entries

(* ---------------------------------------------------------------- *)
(* Compiled execution: the lowered form and its differential          *)

let test_lower_shape () =
  let loop = Parser.parse "for i = 1 to n { X[i] = X[i-1] * 2 + c; }" in
  let flat, program = compile ~iterations:6 loop in
  let lowered = Lower.run ~loop:flat ~program () in
  check_int "one scalar" 1 (Array.length lowered.Lower.scalar_names);
  check_string "scalar name" "c" lowered.Lower.scalar_names.(0);
  (* X[i-1] * 2 + c in postfix: Load Const Mul Scalar Add *)
  check_int "postfix length" 5 (Array.length lowered.Lower.codes.(0).Lower.ops);
  Array.iteri
    (fun j pc ->
      check_bool (Printf.sprintf "PE%d slot store non-empty" j) true
        (pc.Lower.slot_count >= 1);
      check_bool (Printf.sprintf "PE%d stack bounded" j) true (pc.Lower.stack_need >= 1))
    lowered.Lower.procs;
  (* the first iteration reads X[0] from initial memory: some PE
     prefills it *)
  let prefills =
    Array.exists
      (fun pc ->
        let p = pc.Lower.prefill in
        List.exists
          (fun f -> lowered.Lower.array_names.(p.(3 * f)) = "X" && p.((3 * f) + 1) < 1)
          (List.init (Array.length p / 3) Fun.id))
      lowered.Lower.procs
  in
  check_bool "initial-memory read is a prefilled slot" true prefills

(* The contract [run_inline] relies on: record [k] of PE [j] is
   instruction [k] of [programs.(j)] — the same kind, (node, iter) and
   peer, a pack's entries in order — and every slot the form names is
   inside the PE's store. *)
let check_mirrors name (program : Program.t) (lowered : Lower.t) =
  Array.iteri
    (fun j prog ->
      let pc = lowered.Lower.procs.(j) in
      let fail k what = Alcotest.failf "%s: PE%d instruction %d: %s" name j k what in
      let field k f = pc.Lower.instrs.((k * Lower.width) + f) in
      let in_store s = s >= 0 && s < pc.Lower.slot_count in
      check_int
        (Printf.sprintf "%s: PE%d records" name j)
        (List.length prog) (Lower.instr_count pc);
      List.iteri
        (fun k instr ->
          let kind, (head : Program.tag), peer, entries =
            match instr with
            | Program.Compute { node; iter } -> (Lower.compute, { node; iter }, -1, [])
            | Program.Send { tag; dst } -> (Lower.send, tag, dst, [ tag ])
            | Program.Recv { tag; src } -> (Lower.recv, tag, src, [ tag ])
            | Program.Send_pack { tags; dst } -> (Lower.send_pack, List.hd tags, dst, tags)
            | Program.Recv_pack { tags; src } -> (Lower.recv_pack, List.hd tags, src, tags)
          in
          if field k Lower.field_kind <> kind then fail k "kind";
          if field k Lower.field_node <> head.node || field k Lower.field_iter <> head.iter then
            fail k "(node, iter)";
          if field k Lower.field_peer <> peer then fail k "peer";
          let at = field k Lower.field_pool and count = field k Lower.field_count in
          let aux = field k Lower.field_aux in
          if kind = Lower.compute then begin
            let loads =
              Array.fold_left
                (fun n -> function Lower.Load _ -> n + 1 | _ -> n)
                0 lowered.Lower.codes.(head.node).Lower.ops
            in
            if count <> loads then fail k "operand count";
            for r = 0 to count - 1 do
              if not (in_store pc.Lower.pool.(at + r)) then fail k "operand slot"
            done;
            if not (in_store aux) then fail k "destination slot"
          end
          else begin
            if count <> List.length entries then fail k "entry count";
            if pc.Lower.tags.(aux) <> (head.node, head.iter) then fail k "wire tag";
            List.iteri
              (fun i (t : Program.tag) ->
                if kind = Lower.send || kind = Lower.send_pack then begin
                  if pc.Lower.tags.(aux + i) <> (t.node, t.iter) then fail k "entry tag";
                  if not (in_store pc.Lower.pool.(at + i)) then fail k "source slot"
                end
                else begin
                  let e = at + (3 * i) in
                  if pc.Lower.pool.(e) <> t.node || pc.Lower.pool.(e + 1) <> t.iter then
                    fail k "landing entry";
                  if not (in_store pc.Lower.pool.(e + 2)) then fail k "landing slot"
                end)
              entries
          end)
        prog;
      let p = pc.Lower.prefill in
      for f = 0 to (Array.length p / 3) - 1 do
        if not (in_store p.((3 * f) + 2)) then
          Alcotest.failf "%s: PE%d prefill %d outside the store" name j f
      done)
    program.Program.programs

let test_lower_mirrors_program () =
  let full_program ~p ~n (name, source, cost) =
    let ast = Parser.parse source in
    let flat = if Mimd_loop_ir.Ast.is_flat ast then ast else Mimd_loop_ir.If_convert.run ast in
    let graph = (Depend.analyze ~cost flat).Depend.graph in
    let full = Mimd_core.Full_sched.run ~graph ~machine:(machine ~p ~k:2 ()) ~iterations:n () in
    ( Printf.sprintf "%s p=%d n=%d" name p n,
      flat,
      Mimd_codegen.From_schedule.run full.Mimd_core.Full_sched.schedule )
  in
  let mirrors (name, flat, program) =
    check_mirrors name program (Lower.run ~loop:flat ~program ())
  in
  let dir = Filename.concat ".." (Filename.concat "examples" "loops") in
  let examples =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".loop" && f <> "iir2.loop")
    |> List.sort compare
    |> List.map (fun f ->
           (f, In_channel.with_open_text (Filename.concat dir f) In_channel.input_all,
            Mimd_loop_ir.Cost.weighted))
  in
  let ss2 = Mimd_workloads.Kernels_src.state_space2 () in
  let deck =
    [
      ("ewf", Mimd_workloads.Elliptic.source, Mimd_loop_ir.Cost.weighted);
      ("fig7", Mimd_workloads.Fig7.source, Mimd_loop_ir.Cost.weighted);
      ( ss2.name,
        ss2.source,
        if ss2.uniform_cost then Mimd_loop_ir.Cost.uniform else Mimd_loop_ir.Cost.weighted );
      List.find (fun (f, _, _) -> f = "horner.loop") examples;
    ]
  in
  check_int "every example but iir2" 7 (List.length examples);
  List.iter
    (fun p ->
      List.iter
        (fun entry ->
          let name, flat, program = full_program ~p ~n:60 entry in
          mirrors (name, flat, program);
          let packed, _ = Mimd_codegen.Comm_opt.run ~window:4 program in
          mirrors (name ^ " comm-opt", flat, packed))
        examples;
      List.iter (fun entry -> mirrors (full_program ~p ~n:1000 entry)) deck)
    [ 2; 3; 4 ]

let test_lower_rejects_malformed () =
  (* Each malformed program fails lowering with the message the
     Hashtbl-keyed slot table gave. *)
  let { Depend.loop = flat; graph; _ } =
    Depend.analyze (Parser.parse "for i = 1 to n { X[i] = X[i-1] + 1; Y[i] = X[i] * 2; }")
  in
  let tag n i : Program.tag = { node = n; iter = i } in
  let raises name msg programs =
    let program = { Program.graph; processors = Array.length programs; programs } in
    Alcotest.check_raises name (Invalid_argument msg) (fun () ->
        ignore (Lower.run ~loop:flat ~program ()))
  in
  raises "lacks operand" "Lower: PE0 computing (0,2) lacks operand (0,1) for X"
    [| [ Program.Compute { node = 0; iter = 0 }; Program.Compute { node = 0; iter = 2 } ]; [] |];
  raises "send before compute" "Lower: send before compute (malformed program)"
    [|
      [ Program.Send { tag = tag 0 0; dst = 1 }; Program.Compute { node = 0; iter = 0 } ];
      [ Program.Recv { tag = tag 0 0; src = 0 } ];
    |];
  raises "pack sent before compute" "Lower: send before compute (malformed program)"
    [|
      [
        Program.Compute { node = 0; iter = 0 };
        Program.Send_pack { tags = [ tag 0 0; tag 1 0 ]; dst = 1 };
        Program.Compute { node = 1; iter = 0 };
      ];
      [];
    |];
  raises "empty send pack" "Lower: empty pack"
    [| [ Program.Compute { node = 0; iter = 0 }; Program.Send_pack { tags = []; dst = 1 } ]; [] |];
  raises "empty recv pack" "Lower: empty pack" [| []; [ Program.Recv_pack { tags = []; src = 0 } ] |]

let test_compiled_differential_workloads () =
  List.iter
    (fun (name, src) -> differential ~prelower:true ~name (Parser.parse src))
    [
      ("fig1", Mimd_workloads.Fig1.source);
      ("fig7", Mimd_workloads.Fig7.source);
      ("elliptic", Mimd_workloads.Elliptic.source);
    ];
  differential ~prelower:true ~name:"ewf p=4" ~p:4
    (Parser.parse Mimd_workloads.Elliptic.source)

let test_compiled_differential_random () =
  for seed = 1 to 12 do
    let loop = Mimd_workloads.Random_loop.generate_loop ~seed () in
    differential ~prelower:true ~name:(Printf.sprintf "seed %d" seed)
      ~p:(2 + (seed mod 3)) ~iterations:10 loop
  done

let test_compiled_pack_delivery () =
  (* Satellite: values delivered inside a coalesced pack land in their
     slots and survive until reads many iterations later.  ewf under a
     wide coalescing window produces Recv_pack frames whose extra
     values are consumed well after the head's iteration; the compiled
     executor must agree with the simulator bit for bit on every
     instance, on both programs. *)
  let loop = Parser.parse Mimd_workloads.Elliptic.source in
  let flat, program = compile ~p:3 ~iterations:30 loop in
  let packed, stats = Mimd_codegen.Comm_opt.run ~window:6 program in
  check_bool "window coalesced some frames" true
    (stats.Mimd_codegen.Comm_opt.coalesced > 0);
  let has_pack =
    Array.exists
      (List.exists (function
        | Program.Recv_pack { tags; _ } -> List.length tags > 1
        | _ -> false))
      packed.Program.programs
  in
  check_bool "optimized program carries multi-value packs" true has_pack;
  check_runtime ~prelower:true ~name:"ewf unpacked" ~iterations:30 ~flat program;
  check_runtime ~prelower:true ~name:"ewf packed" ~iterations:30 ~flat packed

let test_stale_slot_must_fail () =
  let loop = Parser.parse Mimd_workloads.Fig7.source in
  let flat, program = compile ~iterations:15 loop in
  let lowered = Lower.sabotage_stale_slot (Lower.run ~loop:flat ~program ()) in
  let compiled = Exec_compiled.run ~lowered ~loop:flat ~program () in
  match Value_run.check_against_sequential ~loop:flat ~iterations:15 compiled with
  | Error _ -> ()  (* the NaN-poisoned slot must surface as a mismatch *)
  | Ok () -> Alcotest.fail "sabotaged lowering escaped the value differential"

(* The inline run is [Program.simulate] with a value step, so a frame
   that no Recv takes fails the run as it fails the simulation. *)
let test_inline_undelivered_frame () =
  let loop = Parser.parse "for i = 1 to n { X[i] = X[i-1] + 1; Y[i] = X[i] * 2; }" in
  let flat, program = compile ~k:0 ~iterations:10 loop in
  let extra =
    Array.mapi
      (fun j instrs ->
        if j <> 0 then instrs
        else
          let tag =
            List.find_map
              (function
                | Program.Compute { node; iter } -> Some { Program.node; iter } | _ -> None)
              instrs
            |> Option.get
          in
          instrs @ [ Program.Send { tag; dst = 1 } ])
      program.Program.programs
  in
  let extra = { program with Program.programs = extra } in
  match Exec_compiled.run_inline ~loop:flat ~program:extra () with
  | _ -> Alcotest.fail "a stranded frame went unnoticed"
  | exception Invalid_argument msg ->
    check_bool ("names the frame: " ^ msg) true
      (String.starts_with ~prefix:"Exec_compiled.run_inline: undelivered frame PE0 -> PE1" msg)

(* Minor-heap words per executed instruction of one PE running fig7 at
   n = 1000 through [worker]: the compute path stores each result
   straight into its slot, so no float is boxed per [Compute].  The
   prefill and the state itself are the only allocations; a boxed
   result costs 2 words per Compute and fails the 0.1 bound. *)
let test_worker_minor_words () =
  let loop = Parser.parse Mimd_workloads.Fig7.source in
  let flat, program = compile ~p:1 ~iterations:1000 loop in
  let lowered = Lower.run ~loop:flat ~program () in
  let chans =
    Value_run.of_links ~procs:1
      ~send:(fun ~dst:_ ~tag:_ _ -> invalid_arg "one PE sends nothing")
      ~next:(fun ~src:_ -> invalid_arg "one PE receives nothing")
  in
  let instrs = Lower.instr_count lowered.Lower.procs.(0) in
  let w0 = Gc.minor_words () in
  let vals, _ = Exec_compiled.worker ~lowered ~proc:0 ~chans () in
  let per_instr = (Gc.minor_words () -. w0) /. float_of_int instrs in
  check_int "one value per compute" (Array.length lowered.Lower.procs.(0).Lower.computes / 2)
    (Array.length vals);
  if per_instr > 0.1 then
    Alcotest.failf "Exec_compiled.worker: %.3f minor words per instruction over %d (bound 0.1)"
      per_instr instrs

let test_differential_fixed_cells () =
  List.iter
    (fun p ->
      differential ~name:(Printf.sprintf "fixed cells p=%d" p) ~p
        (Parser.parse fixed_cell_source))
    [ 2; 3 ]

(* Graphs are immutable, so one graph may feed the compile service's
   domains at once: four domains schedule and validate one shared ewf
   graph together, released by one start flag, and must agree with
   each other and with a run on this domain. *)
let test_shared_graph_across_domains () =
  let graph = Mimd_workloads.Elliptic.graph () in
  let machine = machine ~p:2 ~k:2 () in
  let compile () =
    let full = Mimd_core.Full_sched.run ~graph ~machine ~iterations:200 () in
    let report = Mimd_check.Validate.full full in
    (Mimd_core.Full_sched.output_fingerprint full, List.length report.Mimd_check.Validate.issues)
  in
  let go = Atomic.make false in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            while not (Atomic.get go) do
              Domain.cpu_relax ()
            done;
            compile ()))
  in
  Atomic.set go true;
  let results = List.map Domain.join domains in
  let reference, _ = compile () in
  List.iteri
    (fun i (fp, issues) ->
      check_string (Printf.sprintf "domain %d fingerprint" i) reference fp;
      check_int (Printf.sprintf "domain %d issues" i) 0 issues)
    results

let suite =
  [
    Alcotest.test_case "ring link: fifo across a wrap" `Quick test_ring_fifo_across_wrap;
    Alcotest.test_case "ring link: a full ring parks its writer" `Quick
      test_ring_full_parks_writer;
    Alcotest.test_case "ring link: cancel wakes a parked reader and writer" `Quick
      test_ring_cancel_wakes_waiters;
    Alcotest.test_case "differential: paper workloads" `Quick test_differential_paper_workloads;
    Alcotest.test_case "differential: more processors" `Quick test_differential_more_processors;
    Alcotest.test_case "differential: 20 random loops" `Slow test_differential_random_loops;
    Alcotest.test_case "differential: 3 and 4 domains" `Quick test_differential_3_and_4_domains;
    Alcotest.test_case "differential: single domain" `Quick test_single_domain;
    Alcotest.test_case "differential: full pipeline programs" `Quick test_full_sched_programs;
    Alcotest.test_case "watchdog: broken program raises Runtime_deadlock" `Quick
      test_watchdog_detects_deadlock;
    Alcotest.test_case "inline: deadlock raises Runtime_deadlock at once" `Quick
      test_inline_deadlock_is_structured;
    Alcotest.test_case "watchdog: silent on healthy runs" `Quick test_watchdog_quiet_on_healthy_run;
    Alcotest.test_case "links: 20 runs, one stalled, leave no descriptor or ring" `Quick
      test_runs_leave_no_link;
    Alcotest.test_case "domains: a failing PE is named, not its torn-down peers" `Quick
      test_failed_domain_named;
    Alcotest.test_case "collect: every arrival order names the own failure" `Quick
      test_collect_names_own_failure;
    Alcotest.test_case "collect: a quiet bound is a stall listing the waiting PEs" `Quick
      test_collect_quiet_is_a_stall;
    Alcotest.test_case "collect: run over a scripted wait and clock" `Quick
      test_collect_run_on_a_scripted_wait;
    Alcotest.test_case "collect: the first failure extends the deadline once" `Quick
      test_collect_failure_extends_once;
    Alcotest.test_case "collect: every PE reported is done" `Quick test_collect_done;
    Alcotest.test_case "schedule cache: memoizes" `Quick test_schedule_cache_hits;
    Alcotest.test_case "schedule cache: key semantics" `Quick test_schedule_cache_key_semantics;
    Alcotest.test_case "schedule cache: bounded + clear" `Quick test_schedule_cache_eviction;
    Alcotest.test_case "schedule cache: key bytes pinned" `Quick
      test_schedule_cache_key_bytes_pinned;
    Alcotest.test_case "compiled exec: lowered form shape" `Quick test_lower_shape;
    Alcotest.test_case "compiled exec: record k of PE j is the program's instruction k" `Quick
      test_lower_mirrors_program;
    Alcotest.test_case "compiled exec: differential on paper workloads" `Quick
      test_compiled_differential_workloads;
    Alcotest.test_case "compiled exec: differential on random loops" `Quick
      test_compiled_differential_random;
    Alcotest.test_case "compiled exec: pack delivery into slots" `Quick
      test_compiled_pack_delivery;
    Alcotest.test_case "compiled exec: stale-slot sabotage is caught" `Quick
      test_stale_slot_must_fail;
    Alcotest.test_case "differential: ewf p=2 n=1000 (benchmark shape)" `Quick
      test_benchmark_shape;
    Alcotest.test_case "compiled exec: malformed programs rejected" `Quick
      test_lower_rejects_malformed;
    qtest ~count:200 "links: every recv gets its own frame, once" gen_links print_links
      prop_links_match_by_tag;
    Alcotest.test_case "links: no allocation per in-order frame" `Quick
      test_links_minor_words;
    Alcotest.test_case "lower: minor words bounded" `Quick test_lower_minor_words;
    Alcotest.test_case "inline: an undelivered frame fails the run" `Quick
      test_inline_undelivered_frame;
    Alcotest.test_case "worker: no allocation per compute" `Quick test_worker_minor_words;
    Alcotest.test_case "differential: fixed cells (inline, domains; p=2,3)" `Quick
      test_differential_fixed_cells;
    Alcotest.test_case "graph: one graph shared by four domains" `Quick
      test_shared_graph_across_domains;
  ]
