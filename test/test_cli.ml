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
  ]
