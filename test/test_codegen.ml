open Helpers
module Graph = Mimd_ddg.Graph
module Schedule = Mimd_core.Schedule
module Cyclic_sched = Mimd_core.Cyclic_sched
module Program = Mimd_codegen.Program
module From_schedule = Mimd_codegen.From_schedule
module Rolled = Mimd_codegen.Rolled

let fig7_sched ?(iterations = 20) () =
  Cyclic_sched.schedule_iterations ~graph:(fig7 ()) ~machine:(machine ()) ~iterations ()

let test_program_well_formed () =
  let prog = From_schedule.run (fig7_sched ()) in
  check_bool "no defects" true (Program.check prog = [])

let test_computes_cover_schedule () =
  let sched = fig7_sched () in
  let prog = From_schedule.run sched in
  let total =
    List.init prog.Program.processors (fun p -> List.length (Program.computes_of prog p))
    |> List.fold_left ( + ) 0
  in
  check_int "one compute per instance" (Schedule.instance_count sched) total

let test_computes_in_program_order () =
  (* Within a processor, computes appear in schedule start order. *)
  let sched = fig7_sched () in
  let prog = From_schedule.run sched in
  for p = 0 to prog.Program.processors - 1 do
    let starts =
      List.map
        (fun (node, iter) ->
          (Option.get (Schedule.find sched { node; iter })).Schedule.start)
        (Program.computes_of prog p)
    in
    check_bool "ascending starts" true (List.sort compare starts = starts)
  done

let test_recv_precedes_use () =
  (* Every cross-processor operand is received before the compute that
     needs it. *)
  let sched = fig7_sched () in
  let prog = From_schedule.run sched in
  Array.iter
    (fun instrs ->
      let have = Hashtbl.create 64 in
      List.iter
        (function
          | Program.Recv { tag; _ } -> Hashtbl.replace have (tag.Program.node, tag.Program.iter) ()
          | Program.Compute { node; iter } -> begin
            Hashtbl.replace have (node, iter) ();
            List.iter
              (fun (e : Graph.edge) ->
                let pi = iter - e.distance in
                if pi >= 0 then
                  match Schedule.find sched { node = e.src; iter = pi } with
                  | Some _ ->
                    check_bool "operand available locally" true (Hashtbl.mem have (e.src, pi))
                  | None -> ())
              (Graph.preds (fig7 ()) node)
          end
          | Program.Send _ | Program.Send_pack _ | Program.Recv_pack _ -> ())
        instrs)
    (Program.to_instrs prog)

let test_no_messages_single_proc () =
  let sched =
    Cyclic_sched.schedule_iterations ~graph:(fig7 ()) ~machine:(machine ~p:1 ()) ~iterations:10 ()
  in
  let prog = From_schedule.run sched in
  Array.iter
    (fun instrs ->
      List.iter
        (function
          | Program.Send _ | Program.Recv _ | Program.Send_pack _
          | Program.Recv_pack _ ->
            Alcotest.fail "unexpected message"
          | Program.Compute _ -> ())
        instrs)
    (Program.to_instrs prog)

let test_sends_deduplicated () =
  (* A value consumed twice on the same remote processor is sent once. *)
  let g = graph_of ~latencies:[| 1; 1; 1 |] ~edges:[ (0, 1, 0); (0, 2, 0); (1, 1, 1); (2, 2, 1); (1, 2, 0) ] in
  let entries =
    Schedule.
      [
        { inst = { node = 0; iter = 0 }; proc = 0; start = 0 };
        { inst = { node = 1; iter = 0 }; proc = 1; start = 3 };
        { inst = { node = 2; iter = 0 }; proc = 1; start = 4 };
      ]
  in
  let sched = Schedule.make ~graph:g ~machine:(machine ()) entries in
  let prog = From_schedule.run sched in
  let sends =
    Array.to_list (Program.to_instrs prog)
    |> List.concat
    |> List.filter (function Program.Send _ -> true | _ -> false)
  in
  check_int "single send" 1 (List.length sends);
  check_bool "well formed" true (Program.check prog = [])

let test_defect_detection () =
  let g = fig7 () in
  let bad =
    Program.of_instrs g
      [|
          [ Program.Recv { tag = { node = 0; iter = 0 }; src = 1 } ];
          [ Program.Send { tag = { node = 1; iter = 0 }; dst = 0 } ];
        |]
  in
  let defects = Program.check bad in
  check_bool "unmatched recv" true
    (List.exists (function Program.Unmatched_recv _ -> true | _ -> false) defects);
  check_bool "unmatched send" true
    (List.exists (function Program.Unmatched_send _ -> true | _ -> false) defects)

let test_self_message_detected () =
  let bad =
    Program.of_instrs (fig7 ())
      [| [ Program.Send { tag = { node = 0; iter = 0 }; dst = 0 } ] |]
  in
  check_bool "self message" true
    (List.exists
       (function Program.Self_message _ -> true | _ -> false)
       (Program.check bad))

let test_duplicate_compute_detected () =
  let bad =
    Program.of_instrs (fig7 ())
      [|
          [ Program.Compute { node = 0; iter = 0 } ];
          [ Program.Compute { node = 0; iter = 0 } ];
        |]
  in
  check_bool "duplicate compute" true
    (List.exists
       (function Program.Duplicate_compute _ -> true | _ -> false)
       (Program.check bad))

(* Program.check over hand-built programs.  Each defect renders as
   "<defect> [<instruction>]", so a list pins kind, PE, instruction and
   order.  The expected lists are what the tuple-keyed Hashtbl version
   of the check produced. *)
let tag n i : Program.tag = { node = n; iter = i }
let compute n i = Program.Compute { node = n; iter = i }
let send n i dst = Program.Send { tag = tag n i; dst }
let recv n i src = Program.Recv { tag = tag n i; src }

let defects programs =
  let p = Program.of_instrs (fig7 ()) programs in
  let names = Graph.name p.graph in
  List.map
    (fun d ->
      let instr =
        match d with
        | Program.Unmatched_recv { instr; _ }
        | Program.Unmatched_send { instr; _ }
        | Program.Duplicate_send { instr; _ }
        | Program.Self_message { instr; _ } ->
          Format.asprintf "%a" (Program.pp_instr ~names) instr
        | Program.Duplicate_compute _ -> ""
      in
      Format.asprintf "%a [%s]" Program.pp_defect d instr)
    (Program.check p)

let check_defects name expected programs =
  Alcotest.(check (list string)) name expected (defects programs)

let test_duplicate_send_detected () =
  check_defects "plain" [ "duplicate send on PE0 [SEND A[0] -> PE1]" ]
    [| [ compute 0 0; send 0 0 1; send 0 0 1 ]; [ recv 0 0 0 ] |];
  check_defects "pack then plain" [ "duplicate send on PE0 [SEND B[0] -> PE1]" ]
    [|
      [
        compute 0 0;
        compute 1 0;
        Program.Send_pack { tags = [ tag 0 0; tag 1 0 ]; dst = 1 };
        send 1 0 1;
      ];
      [ Program.Recv_pack { tags = [ tag 0 0; tag 1 0 ]; src = 0 } ];
    |]

let test_unmatched_send_detected () =
  check_defects "plain" [ "unmatched send on PE0 [SEND A[0] -> PE1]" ]
    [| [ compute 0 0; send 0 0 1 ]; [] |];
  (* one pack tag is received, the other is not *)
  check_defects "pack" [ "unmatched send on PE0 [SEND {A[0],B[0]} -> PE1]" ]
    [|
      [ compute 0 0; compute 1 0; Program.Send_pack { tags = [ tag 0 0; tag 1 0 ]; dst = 1 } ];
      [ recv 0 0 0 ];
    |]

let test_one_tag_from_two_senders () =
  (* (tag, src, dst) names a message: the same tag sent to PE2 by PE0
     and by PE1 is two messages, neither a duplicate. *)
  check_defects "two messages" []
    [| [ compute 0 0; send 0 0 2 ]; [ send 0 0 2 ]; [ recv 0 0 0; recv 0 0 1 ] |]

let test_tags_beyond_every_compute () =
  (* tags whose iteration no Compute reaches still size the tables *)
  check_defects "late iterations" [ "unmatched recv on PE1 [RECV B[9] <- PE0]" ]
    [| [ compute 0 0; send 0 5 1 ]; [ recv 0 5 0; recv 1 9 0 ] |]

let test_empty_pe_program () =
  check_defects "PE1 runs nothing" [ "unmatched recv on PE2 [RECV B[0] <- PE1]" ]
    [| [ compute 0 0; send 0 0 2 ]; []; [ recv 0 0 0; recv 1 0 1 ] |];
  check_defects "no instructions at all" [] [| []; [] |]

let test_many_defects_in_order () =
  check_defects "full list"
    [
      "duplicate send on PE0 [SEND A[0] -> PE1]";
      "self message on PE0 [SEND A[0] -> PE0]";
      "duplicate compute of (0,0) on PE1 []";
      "self message on PE2 [RECV A[0] <- PE2]";
      "self message on PE2 [SEND {E[4]} -> PE2]";
      "duplicate compute of (0,0) on PE2 []";
      "unmatched send on PE0 [SEND A[0] -> PE0]";
      "unmatched recv on PE1 [RECV {A[0],D[7]} <- PE2]";
      "unmatched recv on PE1 [RECV {A[0],D[7]} <- PE2]";
      "unmatched send on PE1 [SEND C[1] -> PE2]";
      "unmatched recv on PE2 [RECV E[9] <- PE1]";
      "unmatched recv on PE2 [RECV A[0] <- PE2]";
      "unmatched send on PE2 [SEND {E[4]} -> PE2]";
    ]
    [|
      [
        compute 0 0;
        send 0 0 1;
        send 0 0 1;
        send 0 0 0;
        Program.Send_pack { tags = [ tag 0 0; tag 1 2 ]; dst = 2 };
        recv 2 1 1;
      ];
      [
        recv 0 0 0;
        compute 0 0;
        Program.Recv_pack { tags = [ tag 0 0; tag 3 7 ]; src = 2 };
        send 2 1 0;
        send 2 1 2;
      ];
      [
        Program.Recv_pack { tags = [ tag 0 0; tag 1 2 ]; src = 0 };
        recv 4 9 1;
        recv 0 0 2;
        Program.Send_pack { tags = [ tag 4 4 ]; dst = 2 };
        compute 0 0;
      ];
    |]

let test_rolled_renders () =
  let r = Cyclic_sched.solve ~graph:(fig7 ()) ~machine:(machine ()) () in
  let s = Rolled.render r.Cyclic_sched.pattern in
  let contains sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  check_bool "PARBEGIN" true (contains "PARBEGIN");
  check_bool "PAREND" true (contains "PAREND");
  check_bool "steady-state loop" true (contains "FOR i =");
  check_bool "sends appear" true (contains "SEND");
  check_bool "recvs appear" true (contains "RECV");
  check_bool "mentions both PEs" true (contains "PE0:" && contains "PE1:")

let test_rolled_symbolic_step () =
  let r = Cyclic_sched.solve ~graph:(fig7 ()) ~machine:(machine ()) () in
  let s = Rolled.render r.Cyclic_sched.pattern in
  let contains sub =
    let n = String.length sub and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (* fig7's pattern advances 2 iterations per trip. *)
  check_bool "step 2" true (contains "(step 2)")

let test_pp_instr () =
  let names = Graph.name (fig7 ()) in
  let s =
    Format.asprintf "%a" (Program.pp_instr ~names) (Program.Compute { node = 0; iter = 3 })
  in
  check_string "compute" "A[3]" s;
  let s2 =
    Format.asprintf "%a" (Program.pp_instr ~names)
      (Program.Send { tag = { node = 4; iter = 1 }; dst = 1 })
  in
  check_string "send" "SEND E[1] -> PE1" s2

let prop_programs_well_formed =
  qtest ~count:40 "generated programs are well-formed" gen_cyclic_graph print_graph_spec
    (fun spec ->
      let g = build_cyclic spec in
      let sched =
        Cyclic_sched.schedule_iterations ~graph:g ~machine:(machine ~p:3 ~k:2 ())
          ~iterations:10 ()
      in
      Program.check (From_schedule.run sched) = [])

(* The flat form against its view: every example loop's program,
   plain and through [Comm_opt] at windows 4 and 16, encodes back to the
   same records from [to_instrs], and the view of that encoding is its
   input; the fingerprint reads the same either way.  Window 16 must
   produce packs somewhere, so pack tags round-trip too. *)
let test_flat_round_trip () =
  let packs = ref 0 in
  Sys.readdir "../examples/loops" |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".loop")
  |> List.iter (fun name ->
         let path = Filename.concat "../examples/loops" name in
         let src = In_channel.with_open_text path In_channel.input_all in
         let graph = (Mimd_loop_ir.Depend.analyze_string src).Mimd_loop_ir.Depend.graph in
         let full = Mimd_core.Full_sched.run ~graph ~machine:(machine ()) ~iterations:60 () in
         let plain = From_schedule.run full.Mimd_core.Full_sched.schedule in
         List.iter
           (fun (label, (p : Program.t)) ->
             let view = Program.to_instrs p in
             let back = Program.of_instrs p.graph view in
             let what = Printf.sprintf "%s %s" name label in
             check_bool (what ^ ": same records") true (back.code = p.code);
             check_bool (what ^ ": view of the encoding") true (Program.to_instrs back = view);
             check_string (what ^ ": fingerprint")
               (Mimd_codegen.Comm_opt.fingerprint p)
               (Mimd_codegen.Comm_opt.fingerprint back);
             Array.iter
               (List.iter (function
                 | Program.Send_pack _ | Program.Recv_pack _ -> incr packs
                 | Program.Compute _ | Program.Send _ | Program.Recv _ -> ()))
               view)
           [
             ("plain", plain);
             ("window 4", fst (Mimd_codegen.Comm_opt.run ~window:4 plain));
             ("window 16", fst (Mimd_codegen.Comm_opt.run ~window:16 plain));
           ]);
  check_bool "some pack round-tripped" true (!packs > 0)

(* Codegen writes its records in place: on ewf n=1000 its minor words
   are the graph's edge tables and the result's few blocks, not a cell
   per instruction. *)
let test_codegen_minor_words () =
  let flat = Mimd_loop_ir.Parser.parse Mimd_workloads.Elliptic.source in
  let graph = (Mimd_loop_ir.Depend.analyze flat).Mimd_loop_ir.Depend.graph in
  let full = Mimd_core.Full_sched.run ~graph ~machine:(machine ()) ~iterations:1000 () in
  let w0 = Gc.minor_words () in
  let program = From_schedule.run full.Mimd_core.Full_sched.schedule in
  let words = Gc.minor_words () -. w0 in
  check_bool "ewf well-formed" true (Program.check program = []);
  if words > 607.0 then
    Alcotest.failf "From_schedule.run: %.0f minor words on ewf n=1000 (bound 607)" words

let suite =
  [
    Alcotest.test_case "programs well-formed" `Quick test_program_well_formed;
    Alcotest.test_case "computes cover the schedule" `Quick test_computes_cover_schedule;
    Alcotest.test_case "computes in start order" `Quick test_computes_in_program_order;
    Alcotest.test_case "recv precedes use" `Quick test_recv_precedes_use;
    Alcotest.test_case "single PE: no messages" `Quick test_no_messages_single_proc;
    Alcotest.test_case "sends deduplicated per consumer PE" `Quick test_sends_deduplicated;
    Alcotest.test_case "defects: unmatched send/recv" `Quick test_defect_detection;
    Alcotest.test_case "defects: self message" `Quick test_self_message_detected;
    Alcotest.test_case "defects: duplicate compute" `Quick test_duplicate_compute_detected;
    Alcotest.test_case "rolled: structure" `Quick test_rolled_renders;
    Alcotest.test_case "rolled: symbolic step" `Quick test_rolled_symbolic_step;
    Alcotest.test_case "instr printing" `Quick test_pp_instr;
    prop_programs_well_formed;
    Alcotest.test_case "defects: duplicate send, plain and packed" `Quick
      test_duplicate_send_detected;
    Alcotest.test_case "defects: unmatched send, plain and packed" `Quick
      test_unmatched_send_detected;
    Alcotest.test_case "defects: one tag from two senders is two messages" `Quick
      test_one_tag_from_two_senders;
    Alcotest.test_case "defects: tags beyond every compute's iteration" `Quick
      test_tags_beyond_every_compute;
    Alcotest.test_case "defects: a PE with an empty program" `Quick test_empty_pe_program;
    Alcotest.test_case "defects: full list in order" `Quick test_many_defects_in_order;
    Alcotest.test_case "flat form: round trip over the examples" `Quick test_flat_round_trip;
    Alcotest.test_case "codegen: minor words bounded" `Quick test_codegen_minor_words;
  ]
