(* Golden snapshots of user-visible output: these pin the exact shape
   of the artifacts the paper's figures correspond to.  If a change
   breaks one intentionally, update the expected string. *)

open Helpers
module Cyclic_sched = Mimd_core.Cyclic_sched
module Schedule = Mimd_core.Schedule

let contains haystack needle =
  let n = String.length needle and m = String.length haystack in
  let rec go i = i + n <= m && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_fig1_classification_text () =
  let g = Mimd_workloads.Fig1.graph () in
  let cls = Mimd_core.Classify.run g in
  let text =
    Format.asprintf "%a" (Mimd_core.Classify.pp ~names:(Mimd_ddg.Graph.name g)) cls
  in
  check_string "exact rendering"
    "Flow-in : {A, B, C, D, F}\nCyclic  : {E, I, K, L}\nFlow-out: {G, H, J}\n" text

let test_fig7_pattern_grid () =
  let r = Cyclic_sched.solve ~graph:(fig7 ()) ~machine:(machine ()) () in
  let text = Format.asprintf "%a" Mimd_core.Pattern.pp r.Cyclic_sched.pattern in
  (* The exact steady state of Figure 7(d): A,B,C then D,E on PE0 while
     PE1 runs the counterpart half an iteration out of phase. *)
  List.iter
    (fun needle -> check_bool needle true (contains text needle))
    [
      "height 6 cycle(s)";
      "2 iteration(s) per repetition";
      "(3.00 cycles/iter)";
      "A0   D0";
      "B0   E0";
      "D1   A1";
    ]

let test_fig7_rolled_structure () =
  let r = Cyclic_sched.solve ~graph:(fig7 ()) ~machine:(machine ()) () in
  let text = Mimd_codegen.Rolled.render r.Cyclic_sched.pattern in
  List.iter
    (fun needle -> check_bool needle true (contains text needle))
    [
      "PARBEGIN";
      "steady state: 2 iteration(s) every 6 cycle(s) per trip";
      "RECV A[i-1] <- PE1";
      "SEND A[i] -> PE1";
      "RECV D[i] <- PE1";
      "PAREND";
    ]

let test_doacross_pp () =
  let d = Mimd_doacross.Doacross.analyze ~graph:(fig7 ()) ~machine:(machine ()) () in
  check_string "exact rendering"
    "doacross: order [A; B; C; D; E], body length 5, delay 7 (no overlap: sequential)"
    (Format.asprintf "%a" Mimd_doacross.Doacross.pp d)

let test_bounds_pp () =
  let b = Mimd_core.Bounds.compute ~graph:(fig7 ()) ~processors:2 in
  check_string "exact rendering"
    "bounds: recurrence 2.50, resource 2.50, span 3 (floor 2.50 c/iter)"
    (Format.asprintf "%a" Mimd_core.Bounds.pp b)

let test_grid_headers () =
  let sched =
    Cyclic_sched.schedule_iterations ~graph:(fig7 ()) ~machine:(machine ()) ~iterations:2 ()
  in
  let grid = Schedule.render_grid sched in
  check_bool "header row" true (contains grid " step ");
  check_bool "PE columns" true (contains grid "PE0" && contains grid "PE1")

let test_report_deterministic () =
  (* The report claims byte-for-byte determinism; hold it to a cheaper
     version of that promise (small trip count). *)
  let a = Mimd_experiments.Report.generate ~iterations:20 () in
  let b = Mimd_experiments.Report.generate ~iterations:20 () in
  check_bool "identical" true (String.equal a b);
  check_bool "mentions every figure id" true
    (List.for_all (fun id -> contains a ("### " ^ id))
       [ "FIG1"; "FIG3"; "FIG7"; "FIG8"; "FIG9-10"; "FIG11"; "FIG12" ])

let prop_heavier_latencies_still_fine =
  (* Same pipeline invariants with latencies up to 6 and k up to 4. *)
  let gen =
    QCheck2.Gen.(
      let* n = int_range 2 8 in
      let* latencies = array_size (return n) (int_range 1 6) in
      let* k = int_range 0 4 in
      let* extra =
        list_size (int_range 0 n)
          (let* a = int_range 0 (n - 1) in
           let* b = int_range 0 (n - 1) in
           return (a, b, 1))
      in
      let backbone = List.init (n - 1) (fun i -> (i, i + 1, 0)) @ [ (n - 1, 0, 1) ] in
      return (latencies, backbone @ extra, k))
  in
  qtest ~count:50 "heavy latencies: pattern + expansion valid" gen
    (fun (l, e, k) -> Printf.sprintf "k=%d %s" k (print_graph_spec (l, e)))
    (fun (latencies, edges, k) ->
      let g = graph_of ~latencies ~edges in
      let machine = machine ~p:3 ~k () in
      let r = Cyclic_sched.solve ~graph:g ~machine () in
      Schedule.validate (Mimd_core.Pattern.expand r.Cyclic_sched.pattern ~iterations:15)
      = Ok ())

(* Every loop in the example corpus compiles to a schedule whose
   canonical fingerprint is pinned in test/goldens — the same files the
   CI fingerprint-diff steps check via the CLI.  Running the pipeline
   twice per file also pins determinism of the optimized hot path.  The
   n=2000 golden sits at the trip counts the benchmark compiles, where
   a per-instance cost that grows with n would first show. *)
let fingerprint_of_file ~iterations path =
  let src = In_channel.with_open_text path In_channel.input_all in
  let g = (Mimd_loop_ir.Depend.analyze_string src).Mimd_loop_ir.Depend.graph in
  let machine = Mimd_machine.Config.make ~processors:2 ~comm_estimate:2 in
  let full = Mimd_core.Full_sched.run ~graph:g ~machine ~iterations () in
  Mimd_core.Full_sched.output_fingerprint full

let check_fingerprint_golden ~iterations golden =
  let lines =
    In_channel.with_open_text golden In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  check_bool "golden file non-empty" true (lines <> []);
  List.iter
    (fun line ->
      match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | [ hex; name ] ->
        let path = Filename.concat "../examples/loops" name in
        let fp = fingerprint_of_file ~iterations path in
        check_string (name ^ ": deterministic") fp (fingerprint_of_file ~iterations path);
        check_string (name ^ ": matches golden") hex fp
      | _ -> Alcotest.failf "malformed golden line: %S" line)
    lines;
  let corpus =
    Sys.readdir "../examples/loops" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".loop")
  in
  check_int "every corpus file is pinned" (List.length corpus) (List.length lines)

let test_corpus_fingerprints () =
  check_fingerprint_golden ~iterations:60 "goldens/fingerprints_p2_k2_n60.txt"

let test_corpus_fingerprints_n2000 () =
  check_fingerprint_golden ~iterations:2000 "goldens/fingerprints_p2_k2_n2000.txt"

(* The plain codegen golden pins [Comm_opt.fingerprint] of every
   corpus loop's unoptimized program at p=2 k=2 n=60, one line
   "<hex> <name>", so codegen's output is pinned instruction by
   instruction, not only through the schedule it lowers. *)
let test_corpus_program_fingerprints () =
  let lines =
    In_channel.with_open_text "goldens/program_fingerprints_p2_k2_n60.txt" In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ hex; name ] ->
        let src =
          In_channel.with_open_text (Filename.concat "../examples/loops" name) In_channel.input_all
        in
        let g = (Mimd_loop_ir.Depend.analyze_string src).Mimd_loop_ir.Depend.graph in
        let machine = Mimd_machine.Config.make ~processors:2 ~comm_estimate:2 in
        let full = Mimd_core.Full_sched.run ~graph:g ~machine ~iterations:60 () in
        let program = Mimd_codegen.From_schedule.run full.Mimd_core.Full_sched.schedule in
        check_string (name ^ ": matches golden") hex (Mimd_codegen.Comm_opt.fingerprint program)
      | _ -> Alcotest.failf "malformed program golden line: %S" line)
    lines;
  let corpus =
    Sys.readdir "../examples/loops" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".loop")
  in
  check_int "every corpus file is pinned" (List.length corpus) (List.length lines)

(* The comm-opt goldens pin both the optimized programs (fingerprint)
   and the message-count table (before->after) at the default window —
   the same files the CI comm-opt fingerprint-diff steps check.  The
   n=120 golden sits at the trip count where coalescing does the most
   work, so it pins the acceptance decisions at scale. *)
let commopt_line_of_file ?(comm_estimate = 2) ?window ~processors ~iterations path =
  let src = In_channel.with_open_text path In_channel.input_all in
  let g = (Mimd_loop_ir.Depend.analyze_string src).Mimd_loop_ir.Depend.graph in
  let machine = Mimd_machine.Config.make ~processors ~comm_estimate in
  let full = Mimd_core.Full_sched.run ~graph:g ~machine ~iterations () in
  let program = Mimd_codegen.From_schedule.run full.Mimd_core.Full_sched.schedule in
  let opt, stats = Mimd_codegen.Comm_opt.run ?window program in
  Printf.sprintf "%s %d->%d"
    (Mimd_codegen.Comm_opt.fingerprint opt)
    stats.Mimd_codegen.Comm_opt.messages_before
    stats.Mimd_codegen.Comm_opt.messages_after

let check_commopt_golden ~processors ~iterations golden =
  let lines =
    In_channel.with_open_text golden In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  check_bool "golden file non-empty" true (lines <> []);
  List.iter
    (fun line ->
      match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | [ hex; counts; name ] ->
        let path = Filename.concat "../examples/loops" name in
        let line_of () = commopt_line_of_file ~processors ~iterations path in
        let got = line_of () in
        check_string (name ^ ": deterministic") got (line_of ());
        check_string (name ^ ": matches golden") (hex ^ " " ^ counts) got
      | _ -> Alcotest.failf "malformed comm-opt golden line: %S" line)
    lines;
  let corpus =
    Sys.readdir "../examples/loops" |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".loop")
  in
  check_int "every corpus file is pinned" (List.length corpus) (List.length lines)

let test_corpus_commopt_fingerprints () =
  check_commopt_golden ~processors:2 ~iterations:60
    "goldens/fingerprints_commopt_p2_k2_n60.txt"

let test_corpus_commopt_fingerprints_n120 () =
  check_commopt_golden ~processors:4 ~iterations:120
    "goldens/fingerprints_commopt_p4_k2_n120.txt"

(* The comm-opt sweep golden pins every elision and coalescing
   decision off the default shapes: each corpus loop at p in {2,3,4},
   k in {1,2,4}, n in {30,60,120} and window in {1,4}, one line
   "<hex> <before>-><after> <p> <k> <n> <w> <name>" each — the output
   of [mimdloop fingerprint --comm-opt --comm-window w] with the shape
   spliced in. *)
let test_commopt_sweep_fingerprints () =
  let golden =
    In_channel.with_open_text "goldens/fingerprints_commopt_sweep.txt" In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  check_int "one line per shape and loop" 432 (List.length golden);
  let drift =
    List.filter
      (fun line ->
        match String.split_on_char ' ' line with
        | [ hex; counts; p; k; n; w; name ] ->
          commopt_line_of_file ~comm_estimate:(int_of_string k) ~window:(int_of_string w)
            ~processors:(int_of_string p) ~iterations:(int_of_string n)
            (Filename.concat "../examples/loops" name)
          <> hex ^ " " ^ counts
        | _ -> Alcotest.failf "malformed comm-opt sweep line: %S" line)
      golden
  in
  match drift with
  | [] -> ()
  | first :: _ ->
    Alcotest.failf "%d of %d comm-opt sweep lines drifted; first: %S" (List.length drift)
      (List.length golden) first

(* The sweep golden pins [Full_sched]'s default (Auto) decisions off
   the p=2 k=2 diagonal: every corpus loop and textual kernel at
   p in 1..5, k in {0,1,2,4,8} and n in {7, 250, 1000}, one line
   "<hex> <p> <k> <n> <name>" each, including the shapes where the
   Separate schedule wins the fold decision. *)
let sweep_sources () =
  let dir = "../examples/loops" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".loop")
    |> List.sort compare
  in
  List.map
    (fun f ->
      let src = In_channel.with_open_text (Filename.concat dir f) In_channel.input_all in
      (f, (Mimd_loop_ir.Depend.analyze_string src).Mimd_loop_ir.Depend.graph))
    files
  @ List.map
      (fun (k : Mimd_workloads.Kernels_src.t) ->
        ("kernel:" ^ k.name, Mimd_workloads.Kernels_src.analyze k))
      (Mimd_workloads.Kernels_src.all ())

let sweep_lines () =
  let sources = sweep_sources () in
  List.concat_map
    (fun p ->
      List.concat_map
        (fun k ->
          List.concat_map
            (fun n ->
              let machine = Mimd_machine.Config.make ~processors:p ~comm_estimate:k in
              List.map
                (fun (name, g) ->
                  let full = Mimd_core.Full_sched.run ~graph:g ~machine ~iterations:n () in
                  Printf.sprintf "%s %d %d %d %s"
                    (Mimd_core.Full_sched.output_fingerprint full)
                    p k n name)
                sources)
            [ 7; 250; 1000 ])
        [ 0; 1; 2; 4; 8 ])
    [ 1; 2; 3; 4; 5 ]

let test_sweep_fingerprints () =
  let golden =
    In_channel.with_open_text "goldens/fingerprints_sweep.txt" In_channel.input_lines
    |> List.filter (fun l -> String.trim l <> "")
  in
  let got = sweep_lines () in
  check_int "one line per shape and source" (List.length golden) (List.length got);
  let drift = List.filter (fun (a, b) -> a <> b) (List.combine golden got) in
  match drift with
  | [] -> ()
  | (want, have) :: _ ->
    Alcotest.failf "%d of %d sweep fingerprints drifted; first: want %S, got %S"
      (List.length drift) (List.length golden) want have

let suite =
  [
    Alcotest.test_case "golden: fig1 classification" `Quick test_fig1_classification_text;
    Alcotest.test_case "golden: fig7 pattern grid" `Quick test_fig7_pattern_grid;
    Alcotest.test_case "golden: fig7 rolled code" `Quick test_fig7_rolled_structure;
    Alcotest.test_case "golden: doacross pp" `Quick test_doacross_pp;
    Alcotest.test_case "golden: bounds pp" `Quick test_bounds_pp;
    Alcotest.test_case "golden: grid headers" `Quick test_grid_headers;
    Alcotest.test_case "report: deterministic and complete" `Slow test_report_deterministic;
    Alcotest.test_case "golden: corpus schedule fingerprints" `Quick test_corpus_fingerprints;
    Alcotest.test_case "golden: corpus schedule fingerprints n2000" `Quick
      test_corpus_fingerprints_n2000;
    Alcotest.test_case "golden: corpus comm-opt fingerprints" `Quick
      test_corpus_commopt_fingerprints;
    Alcotest.test_case "golden: corpus comm-opt fingerprints p4 n120" `Quick
      test_corpus_commopt_fingerprints_n120;
    prop_heavier_latencies_still_fine;
    Alcotest.test_case "golden: sweep fingerprints p1-5 k0-8 n7-1000" `Quick
      test_sweep_fingerprints;
    Alcotest.test_case "golden: comm-opt sweep fingerprints p2-4 k1-4 n30-120 w1,4" `Quick
      test_commopt_sweep_fingerprints;
    Alcotest.test_case "golden: corpus plain program fingerprints" `Quick
      test_corpus_program_fingerprints;
  ]
