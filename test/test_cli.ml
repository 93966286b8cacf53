(* Exit-code contract of the CLI: success paths exit 0; validation
   failures, value mismatches and runtime deadlocks exit non-zero.
   These run the real executable (dune's deps clause builds it first);
   the cwd during tests is _build/default/test. *)

open Helpers

let exe = Filename.concat ".." (Filename.concat "bin" "mimdloop.exe")

let command args = Sys.command (exe ^ " " ^ args ^ " > /dev/null 2>&1")

let test_exe_present () =
  check_bool "mimdloop.exe built" true (Sys.file_exists exe)

let test_check_workloads_clean () =
  check_int "check fig7" 0 (command "check -w fig7 -n 20");
  check_int "check ewf at p=3" 0 (command "check -w ewf -p 3 -n 15")

let test_check_broken_exits_nonzero () =
  check_bool "check --broken fails" true (command "check -w fig7 -n 20 --broken" <> 0)

let test_check_fuzz () =
  check_int "clean fuzz passes" 0 (command "check --fuzz 8 --fuzz-seed 5 --no-runtime");
  check_bool "fault-injected fuzz fails" true
    (command "check --fuzz 25 --fuzz-seed 5 --inject-fault hasten-dependent --no-runtime" <> 0)

let test_run_parallel_ok_exits_zero () =
  check_int "healthy run" 0 (command "run-parallel --src fig7 -k 0 -n 10")

let test_run_parallel_mismatch_exits_nonzero () =
  (* skew-init perturbs only the runtime's initial memory, so the
     value differential must report a mismatch. *)
  check_bool "skewed init fails" true
    (command "run-parallel --src fig7 -k 0 -n 10 --inject-fault skew-init" <> 0)

(* serve/batch: the end-to-end surface of lib/server.  Each test gets
   its own cache dir so runs can't contaminate each other. *)

let shell cmd = Sys.command (cmd ^ " > /dev/null 2>&1")

let with_tmp_dir prefix f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect f ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)));
  dir

let test_serve_stdio_roundtrip () =
  let dir = with_tmp_dir "mimd-cli-serve" Fun.id in
  let requests =
    {|{"id":1,"op":"compile","loop":"for i = 1 to n { X[i] = X[i-1] + Y[i]; }"}
{"id":2,"op":"compile","loop":"for i = 1 to n { X[i] = X[i-1] + Y[i]; }"}
{"id":3,"op":"shutdown"}|}
  in
  let cmd =
    Printf.sprintf "printf %s | %s serve --stdio --jobs 1 --cache-dir %s > /dev/null 2>&1"
      (Filename.quote (requests ^ "\n"))
      exe (Filename.quote dir)
  in
  check_int "serve --stdio exits 0 after shutdown" 0 (Sys.command cmd)

let test_batch_examples () =
  let dir = with_tmp_dir "mimd-cli-batch" Fun.id in
  let examples = Filename.concat ".." (Filename.concat "examples" "loops") in
  let batch jobs =
    shell
      (Printf.sprintf "%s batch %s --jobs %d --cache-dir %s" exe
         (Filename.quote examples) jobs (Filename.quote dir))
  in
  check_int "cold batch exits 0" 0 (batch 2);
  check_int "warm batch exits 0" 0 (batch 2);
  check_bool "missing corpus exits non-zero" true
    (shell (Printf.sprintf "%s batch /no/such/corpus --cache-dir %s" exe
              (Filename.quote dir))
    <> 0)

let test_run_parallel_deadlock_exits_nonzero () =
  (* drop-send removes one message after validation; the watchdog must
     fire and the exit code must say so. *)
  check_bool "dropped send fails" true
    (command
       "run-parallel --src fig7 -k 0 -n 10 --inject-fault drop-send --watchdog-timeout 0.4"
    <> 0)

(* Exit code and stderr of one run. *)
let command_stderr args =
  let err = Filename.temp_file "mimd-cli" ".err" in
  let code = Sys.command (Printf.sprintf "%s %s > /dev/null 2> %s" exe args (Filename.quote err)) in
  let text = In_channel.with_open_text err In_channel.input_all in
  Sys.remove err;
  (code, text)

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let loop_file name = Filename.concat ".." (Filename.concat "examples" (Filename.concat "loops" name))

(* An empty loop body is one structured parse error on serve, and a
   failed file (exit 1) in batch. *)
let test_empty_loop_is_a_parse_error () =
  let out = Filename.temp_file "mimd-cli" ".out" in
  let requests =
    {|{"id":1,"op":"compile","loop":"for i = 1 to n { }"}
{"id":2,"op":"shutdown"}|}
  in
  check_int "serve exits 0" 0
    (Sys.command
       (Printf.sprintf "printf %s | %s serve --stdio --jobs 1 --no-disk-cache > %s 2>&1"
          (Filename.quote (requests ^ "\n"))
          exe (Filename.quote out)));
  let lines = In_channel.with_open_text out In_channel.input_lines in
  Sys.remove out;
  check_int "one reply per request" 2 (List.length lines);
  check_bool "a parse error for the empty loop" true
    (List.mem {|{"id":1,"ok":false,"error":{"kind":"parse","message":"parse error: empty loop body"}}|}
       lines);
  let dir = with_tmp_dir "mimd-cli-empty" Fun.id in
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
  @@ fun () ->
  Out_channel.with_open_text (Filename.concat dir "empty.loop") (fun oc ->
      output_string oc "for i = 1 to n { }\n");
  ignore (Sys.command (Printf.sprintf "cp %s %s" (loop_file "fig7.loop") (Filename.quote dir)));
  check_int "batch with an empty loop exits 1" 1
    (shell (Printf.sprintf "%s batch %s --no-disk-cache" exe (Filename.quote dir)))

let test_verify_needs_unwinding () =
  (* iir2 carries a distance-2 dependence: a clean exit 1 with the
     same message run-parallel prints, not an uncaught exception.
     verify, check --replay and run-dist share one unwinding check, so
     all of them name the same cause. *)
  let cause = "loop needed unwinding (some dependence distance > 1)" in
  let code, err = command_stderr ("verify -f " ^ loop_file "iir2.loop") in
  check_int "iir2 exits 1" 1 code;
  check_bool "names the unwinding" true (contains ~sub:cause err);
  let code, err = command_stderr ("run-dist -f " ^ loop_file "iir2.loop") in
  check_int "run-dist on iir2 exits 1" 1 code;
  check_bool "run-dist names the unwinding" true (contains ~sub:cause err);
  let out = Filename.temp_file "mimd-cli" ".out" in
  let code =
    Sys.command
      (Printf.sprintf "%s check --no-runtime --replay %s > %s" exe (loop_file "iir2.loop")
         (Filename.quote out))
  in
  let replay = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  check_int "replaying iir2 exits 1" 1 code;
  check_bool "the replay names the unwinding" true (contains ~sub:cause replay);
  check_int "a distance-1 loop verifies" 0 (command ("verify -f " ^ loop_file "fig7.loop"))

(* A roster host that does not resolve fails in the supervisor before
   any fork, naming the host; a wrong-length roster is a message too. *)
let test_run_dist_bad_roster () =
  let code, err = command_stderr "run-dist -n 8 --connect nosuch.invalid:0,127.0.0.1:0" in
  check_int "unresolvable host exits 1" 1 code;
  check_bool "names the host" true (contains ~sub:"cannot resolve host \"nosuch.invalid\"" err);
  let code, err = command_stderr "run-dist -n 8 --connect 127.0.0.1:0" in
  check_int "short roster exits 1" 1 code;
  check_bool "says why" true (contains ~sub:"roster has 1 address(es) for 2 PE(s)" err)

(* A temporary loop file holding [text], removed after [f]. *)
let with_loop_file text f =
  let path = Filename.temp_file "mimd-cli" ".loop" in
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc text);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* Front-end errors are exit 1 with the cause on stderr, never an
   uncaught exception (125). *)
let test_front_end_errors_exit_1 () =
  List.iter
    (fun (what, text, cause) ->
      with_loop_file text (fun path ->
          List.iter
            (fun cmd ->
              let code, err = command_stderr (Printf.sprintf "%s -f %s" cmd path) in
              check_int (Printf.sprintf "%s on a %s exits 1" cmd what) 1 code;
              check_bool (Printf.sprintf "%s on a %s names it" cmd what) true
                (contains ~sub:cause err))
            [ "verify"; "schedule"; "run-parallel"; "run-dist" ]))
    [
      ("lex error", "for i = 1 to n { X[i] = X[i-1] + $; }\n", "lex error at");
      ("empty loop", "for i = 1 to n { }\n", "empty loop body");
    ]

(* The message count a command prints: run-parallel's "messages: N,"
   line or verify's "(..., N messages)" summary. *)
let messages_of args =
  let out = Filename.temp_file "mimd-cli" ".out" in
  let code = Sys.command (Printf.sprintf "%s %s > %s 2>&1" exe args (Filename.quote out)) in
  let lines = In_channel.with_open_text out In_channel.input_lines in
  Sys.remove out;
  check_int (args ^ " exits 0") 0 code;
  let scan line =
    match Scanf.sscanf line "  messages: %d," Fun.id with
    | n -> Some n
    | exception _ -> (
      match Scanf.sscanf line "(%_d iterations, %_d PEs, makespan %_d, %d messages)" Fun.id with
      | n -> Some n
      | exception _ -> None)
  in
  match List.find_map scan lines with
  | Some n -> n
  | None -> Alcotest.failf "%s printed no message count" args

(* verify checks the program the executors run: same PEs, same
   messages as run-parallel on every example loop it accepts. *)
let test_verify_checks_the_executed_program () =
  let dir = Filename.concat ".." (Filename.concat "examples" "loops") in
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.filter (fun f -> Filename.check_suffix f ".loop" && f <> "iir2.loop")
  |> List.iter (fun f ->
         let path = loop_file f in
         check_int (f ^ ": verify and run-parallel send the same messages")
           (messages_of ("run-parallel -f " ^ path))
           (messages_of ("verify -f " ^ path)))

(* cmdliner's exit code for a command-line error. *)
let usage_error = 124

let test_count_flag_rejects flag () =
  List.iter
    (fun cmd ->
      let code, err = command_stderr (Printf.sprintf "%s -f %s %s 0" cmd (loop_file "fig1.loop") flag) in
      check_int (Printf.sprintf "%s %s 0 is a usage error" cmd flag) usage_error code;
      check_bool
        (Printf.sprintf "%s %s 0 says why" cmd flag)
        true
        (contains ~sub:"not a positive integer" err))
    [ "schedule"; "verify"; "run-parallel"; "run-dist" ]

(* Out-of-range numbers are usage errors that name the bound.  Past
   the parser, a negative -k, a zero processor bound, watchdog
   timeout or queue depth, or a negative cycle, fuzz or window count
   raises (exit 125), a zero run-dist timeout reports a stall "for 0.0
   s", and a negative respawn budget or fluctuation factor would be
   clamped or ignored. *)
let test_out_of_range_numbers_reject () =
  List.iter
    (fun (args, why) ->
      let code, err = command_stderr args in
      check_int (args ^ " is a usage error") usage_error code;
      check_bool (Printf.sprintf "%s says %S" args why) true (contains ~sub:why err))
    [
      ("schedule -w fig1 -k-3", "not a non-negative integer");
      ("run-parallel -k-1", "not a non-negative integer");
      ("run-dist -k-1", "not a non-negative integer");
      ("table1 -k-1", "not a non-negative integer");
      ("table1 -p 0", "not a positive integer");
      ("procs -w ewf --max 0", "not a positive integer");
      ("run-parallel --watchdog-timeout 0", "not a positive number");
      ("run-dist --timeout 0", "not a positive number");
      ("run-dist --timeout=-1.5", "not a positive number");
      ("gantt -w fig1 --cycles=-5", "not a non-negative integer");
      ("check --fuzz=-3", "not a non-negative integer");
      ("run-dist --respawn=-3", "not a non-negative integer");
      ("route --socket x.sock --respawn=-3", "not a non-negative integer");
      ("fingerprint -w fig1 --comm-opt --comm-window=-1", "not a non-negative integer");
      ("serve --stdio --queue-depth=0", "not a positive integer");
      ("batch x.loop --queue-depth=0", "not a positive integer");
      ("serve --stdio --jobs 0", "not a positive integer");
      ("batch x.loop --jobs=-2", "not a positive integer");
      ("route --socket x.sock --jobs 0", "not a positive integer");
      ("route --socket x.sock --workers 0", "not a positive integer");
      ("route --socket x.sock --max-inflight 0", "not a positive integer");
      ("simulate -w fig1 --mm=-3", "not a positive integer");
      ("verify --mm 0", "not a positive integer");
      ("batch x.loop --deadline-ms 0", "not a positive number");
      ("batch x.loop --deadline-ms=-5", "not a positive number");
    ]

let suite =
  [
    Alcotest.test_case "cli: executable built" `Quick test_exe_present;
    Alcotest.test_case "cli: check clean workloads" `Quick test_check_workloads_clean;
    Alcotest.test_case "cli: check --broken exits non-zero" `Quick
      test_check_broken_exits_nonzero;
    Alcotest.test_case "cli: check --fuzz exit codes" `Quick test_check_fuzz;
    Alcotest.test_case "cli: run-parallel success exits zero" `Quick
      test_run_parallel_ok_exits_zero;
    Alcotest.test_case "cli: run-parallel mismatch exits non-zero" `Quick
      test_run_parallel_mismatch_exits_nonzero;
    Alcotest.test_case "cli: run-parallel deadlock exits non-zero" `Quick
      test_run_parallel_deadlock_exits_nonzero;
    Alcotest.test_case "cli: serve --stdio roundtrip" `Quick test_serve_stdio_roundtrip;
    Alcotest.test_case "cli: batch examples corpus" `Quick test_batch_examples;
    Alcotest.test_case "cli: verify exits 1 on a loop needing unwinding" `Quick
      test_verify_needs_unwinding;
    Alcotest.test_case "cli: -n 0 is a usage error" `Quick (test_count_flag_rejects "-n");
    Alcotest.test_case "cli: -p 0 is a usage error" `Quick (test_count_flag_rejects "-p");
    Alcotest.test_case "cli: out-of-range numbers are usage errors" `Quick
      test_out_of_range_numbers_reject;
    Alcotest.test_case "cli: front-end errors exit 1" `Quick test_front_end_errors_exit_1;
    Alcotest.test_case "cli: verify checks the executed program" `Quick
      test_verify_checks_the_executed_program;
    Alcotest.test_case "cli: an empty loop is a parse error" `Quick
      test_empty_loop_is_a_parse_error;
    Alcotest.test_case "cli: run-dist rejects a bad roster before forking" `Quick
      test_run_dist_bad_roster;
  ]
