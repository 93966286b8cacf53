(* Real-domain runtime: differential correctness of the compiled
   evaluator, on domains and inline, against the sequential interpreter
   (the spec, instance by instance), channel mechanics, frame matching
   over links, watchdog deadlock detection and the schedule cache. *)

open Helpers
module Parser = Mimd_loop_ir.Parser
module Depend = Mimd_loop_ir.Depend
module Interp = Mimd_loop_ir.Interp
module Program = Mimd_codegen.Program
module Channel = Mimd_runtime.Channel
module Watchdog = Mimd_runtime.Watchdog
module Value_run = Mimd_runtime.Value_run
module Schedule_cache = Mimd_runtime.Schedule_cache
module Lower = Mimd_runtime.Lower
module Exec_compiled = Mimd_runtime.Exec_compiled

(* ---------------------------------------------------------------- *)
(* Channels                                                           *)

let test_channel_fifo () =
  let ch = Channel.create ~capacity:8 in
  List.iter (fun i -> Channel.send ch i) [ 1; 2; 3 ];
  check_int "fifo 1" 1 (Channel.recv ch);
  check_int "fifo 2" 2 (Channel.recv ch);
  Channel.send ch 4;
  check_int "fifo 3" 3 (Channel.recv ch);
  check_int "fifo 4, sent after a recv" 4 (Channel.recv ch)

let test_channel_bounded () =
  (* A producer pushing capacity + N items blocks until the consumer
     drains; both sides must still complete. *)
  let ch = Channel.create ~capacity:2 in
  let producer = Domain.spawn (fun () -> List.iter (fun i -> Channel.send ch i) [ 1; 2; 3; 4; 5 ]) in
  let got = List.init 5 (fun _ -> Channel.recv ch) in
  Domain.join producer;
  check_bool "all items in order" true (got = [ 1; 2; 3; 4; 5 ])

let test_channel_cancel_unblocks () =
  let ch : int Channel.t = Channel.create ~capacity:2 in
  let consumer =
    Domain.spawn (fun () ->
        match Channel.recv ch with
        | _ -> false
        | exception Channel.Cancelled -> true)
  in
  Unix.sleepf 0.02;
  Channel.cancel ch;
  check_bool "blocked recv woken with Cancelled" true (Domain.join consumer);
  check_bool "send after cancel raises" true
    (match Channel.send ch 1 with () -> false | exception Channel.Cancelled -> true)

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
   compiles it (p=2 k=2 n=1000, 17000 instances): 742435 (43.7 per
   instance) when the bound was set, 10% below it. *)
let test_lower_minor_words () =
  let flat, program, _ = ewf_benchmark_shape () in
  let w0 = Gc.minor_words () in
  let lowered = Lower.run ~loop:flat ~program () in
  let words = Gc.minor_words () -. w0 in
  ignore (Sys.opaque_identity lowered);
  if words > 816_679.0 then
    Alcotest.failf "Lower.run: %.0f minor words on ewf n=1000 (bound 816679)" words

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
(* Watchdog                                                           *)

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
  (* The run must end in Runtime_deadlock (with snapshots), not hang. *)
  let flat, program, broken = program_missing_a_send () in
  let watchdog = Watchdog.config ~timeout:0.3 ~poll_interval:0.01 () in
  let t0 = Unix.gettimeofday () in
  match Exec_compiled.run ~watchdog ~loop:flat ~program:broken () with
  | _ -> Alcotest.fail "broken program terminated normally"
  | exception Watchdog.Runtime_deadlock stall ->
    let elapsed = Unix.gettimeofday () -. t0 in
    check_bool "terminated within a few timeouts" true (elapsed < 3.0);
    check_int "one snapshot per domain" program.Program.processors
      (List.length stall.Watchdog.snapshots);
    check_bool "some domain is stuck mid-program" true
      (List.exists
         (fun s -> s.Watchdog.current <> None)
         stall.Watchdog.snapshots)

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
  let watchdog = Watchdog.config ~timeout:30.0 () in
  let outcome = Exec_compiled.run ~watchdog ~loop:flat ~program () in
  check_bool "finished" true (Value_run.instance_count outcome.Value_run.instances > 0)

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
  Array.iteri
    (fun j pc ->
      check_bool (Printf.sprintf "PE%d slot store non-empty" j) true
        (pc.Lower.slot_count >= 1);
      check_bool (Printf.sprintf "PE%d stack bounded" j) true (pc.Lower.stack_need >= 1);
      Array.iter
        (fun ci ->
          match ci with
          | Lower.CCompute { code; args; dst; _ } ->
            (* X[i-1] * 2 + c in postfix: Load Const Mul Scalar Add *)
            check_int "postfix length" 5 (Array.length code.Lower.ops);
            check_bool "compute has operand slots" true
              (Array.for_all (fun s -> s >= 0 && s < pc.Lower.slot_count) args);
            check_bool "dst in range" true (dst >= 0 && dst < pc.Lower.slot_count)
          | Lower.CSend _ | Lower.CSend_pack _ | Lower.CRecv _ | Lower.CRecv_pack _ -> ())
        pc.Lower.instrs)
    lowered.Lower.procs;
  (* the first iteration reads X[0] from initial memory: some PE
     prefills it *)
  let prefills =
    Array.exists
      (fun pc -> Array.exists (fun (a, i, _) -> a = "X" && i < 1) pc.Lower.prefill)
      lowered.Lower.procs
  in
  check_bool "initial-memory read is a prefilled slot" true prefills

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
  let instrs = Array.length lowered.Lower.procs.(0).Lower.instrs in
  let w0 = Gc.minor_words () in
  let vals, _ = Exec_compiled.worker ~lowered ~proc:0 ~chans () in
  let per_instr = (Gc.minor_words () -. w0) /. float_of_int instrs in
  check_int "one value per compute" (Array.length lowered.Lower.procs.(0).Lower.computes)
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

let suite =
  [
    Alcotest.test_case "channel: fifo" `Quick test_channel_fifo;
    Alcotest.test_case "channel: bounded send blocks" `Quick test_channel_bounded;
    Alcotest.test_case "channel: cancel unblocks" `Quick test_channel_cancel_unblocks;
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
    Alcotest.test_case "schedule cache: memoizes" `Quick test_schedule_cache_hits;
    Alcotest.test_case "schedule cache: key semantics" `Quick test_schedule_cache_key_semantics;
    Alcotest.test_case "schedule cache: bounded + clear" `Quick test_schedule_cache_eviction;
    Alcotest.test_case "schedule cache: key bytes pinned" `Quick
      test_schedule_cache_key_bytes_pinned;
    Alcotest.test_case "compiled exec: lowered form shape" `Quick test_lower_shape;
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
  ]
