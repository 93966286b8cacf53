(* lib/dist: the multi-process socket backend and the serve fleet.

   THIS SUITE MUST RUN FIRST.  OCaml 5 refuses Unix.fork in a process
   that has ever created a domain, and some tests here fork: the mesh,
   TCP and ring-link tests fork their own peers, a team test forks the
   parent it lets die, and the router fleet forks its workers.  (Team
   members and the link probe's peers are spawned, which needs no such
   order.)  Keep it ahead of any suite
   that touches Domain.spawn (runtime, server, obs, ...) in
   test/main.ml. *)

open Helpers
module Parser = Mimd_loop_ir.Parser
module Depend = Mimd_loop_ir.Depend
module Value_run = Mimd_runtime.Value_run
module Interp = Mimd_loop_ir.Interp
module Json = Mimd_server.Json
module Wire = Mimd_runtime.Wire
module Mesh_sock = Mimd_runtime.Mesh_sock
module Mesh_tcp = Mimd_dist.Mesh_tcp
module Respawn = Mimd_dist.Respawn
module Runner = Mimd_dist.Runner
module Ring = Mimd_dist.Ring
module Linkprobe = Mimd_dist.Linkprobe
module Router = Mimd_dist.Router
module Trace = Mimd_obs.Trace

(* Deterministic seed for the framing fuzz (QCHECK_SEED also pins the
   qcheck properties; this one is for the hand-rolled byte fuzz). *)
let fuzz_seed =
  match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 0x5eed

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ---------------------------------------------------------------- *)
(* Wire framing                                                       *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      try Unix.close b with Unix.Unix_error _ -> ())
    (fun () -> f a b)

let test_wire_roundtrip () =
  with_socketpair @@ fun a b ->
  (* the shapes the subsystem actually ships: tagged floats on the
     mesh links, report-sized values on the control channels *)
  let tagged = ((3, 7), 2.5) in
  let batch = List.init 200 (fun i -> ((i, i + 1), float_of_int i /. 3.0)) in
  let blob = String.make 100_000 'x' in
  Wire.write a tagged;
  Wire.write a batch;
  Wire.write a blob;
  check_bool "tagged float" true (Wire.read b = Ok tagged);
  check_bool "tagged list" true (Wire.read b = Ok batch);
  check_bool "large string" true (Wire.read b = Ok blob);
  (* clean EOF on a frame boundary *)
  Unix.close a;
  check_bool "clean close -> Closed" true
    ((Wire.read b : (unit, Wire.error) result) = Error Wire.Closed)

let test_wire_bad_magic () =
  with_socketpair @@ fun a b ->
  let junk = Bytes.of_string "JUNKJUNKJUNK" in
  ignore (Unix.write a junk 0 (Bytes.length junk));
  check_bool "garbage -> Bad_magic" true (Wire.read b = Error Wire.Bad_magic)

let test_wire_oversized () =
  with_socketpair @@ fun a b ->
  (* A valid magic with an absurd declared length must be rejected
     before any allocation of that size. *)
  let h = Bytes.create 8 in
  Bytes.blit_string Wire.magic 0 h 0 4;
  Bytes.set h 4 '\x7f';
  Bytes.set h 5 '\xff';
  Bytes.set h 6 '\xff';
  Bytes.set h 7 '\xff';
  ignore (Unix.write a h 0 8);
  match Wire.read b with
  | Error (Wire.Oversized _) -> ()
  | other ->
    Alcotest.failf "expected Oversized, got %s"
      (match other with
      | Ok _ -> "a value"
      | Error e -> Wire.error_to_string e)

let test_wire_truncated () =
  with_socketpair @@ fun a b ->
  (* Cut a legitimate frame mid-payload: EOF inside a frame is
     Truncated, never a hang. *)
  let payload = Marshal.to_string (String.make 256 'y') [] in
  let h = Bytes.create 8 in
  Bytes.blit_string Wire.magic 0 h 0 4;
  let n = String.length payload in
  Bytes.set h 4 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set h 5 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set h 6 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set h 7 (Char.chr (n land 0xff));
  ignore (Unix.write a h 0 8);
  ignore (Unix.write a (Bytes.of_string payload) 0 (n / 2));
  Unix.close a;
  check_bool "mid-frame EOF -> Truncated" true (Wire.read b = Error Wire.Truncated)

let test_wire_decode_failure () =
  with_socketpair @@ fun a b ->
  (* A well-framed payload that is not a marshalled value. *)
  let body = String.make 32 '\x00' in
  let h = Bytes.create 8 in
  Bytes.blit_string Wire.magic 0 h 0 4;
  Bytes.set h 4 '\x00';
  Bytes.set h 5 '\x00';
  Bytes.set h 6 '\x00';
  Bytes.set h 7 (Char.chr (String.length body));
  ignore (Unix.write a h 0 8);
  ignore (Unix.write a (Bytes.of_string body) 0 (String.length body));
  check_bool "garbage payload -> Decode_failure" true
    (Wire.read b = Error Wire.Decode_failure)

let test_wire_fuzz () =
  (* Seeded byte-level fuzz: random garbage, truncated real frames and
     bit-flipped real frames must always surface a structured error or
     a (wrong but bounded) value — never a hang, never a crash.  The
     reads can't block: the writer half is closed before reading. *)
  let st = Random.State.make [| fuzz_seed |] in
  for _ = 1 to 200 do
    with_socketpair @@ fun a b ->
    let mode = Random.State.int st 3 in
    (match mode with
    | 0 ->
      (* pure noise *)
      let len = Random.State.int st 64 in
      let noise = Bytes.init len (fun _ -> Char.chr (Random.State.int st 256)) in
      ignore (Unix.write a noise 0 len)
    | 1 ->
      (* a real frame cut at a random point *)
      let v = List.init (1 + Random.State.int st 20) (fun i -> float_of_int i) in
      let payload = Marshal.to_string v [] in
      let n = String.length payload in
      let h = Bytes.create 8 in
      Bytes.blit_string Wire.magic 0 h 0 4;
      Bytes.set h 4 (Char.chr ((n lsr 24) land 0xff));
      Bytes.set h 5 (Char.chr ((n lsr 16) land 0xff));
      Bytes.set h 6 (Char.chr ((n lsr 8) land 0xff));
      Bytes.set h 7 (Char.chr (n land 0xff));
      let frame = Bytes.cat h (Bytes.of_string payload) in
      let cut = Random.State.int st (Bytes.length frame) in
      ignore (Unix.write a frame 0 cut)
    | _ ->
      (* control: a complete valid frame still reads Ok *)
      Wire.write a (List.init 8 (fun i -> ((i, i), float_of_int i))));
    Unix.close a;
    match Wire.read b with
    | Ok _ | Error _ -> ()
  done

(* ---------------------------------------------------------------- *)
(* Consistent-hash ring                                               *)

let keys n = List.init n (fun i -> Printf.sprintf "key-%d" i)

let test_ring_deterministic () =
  let r1 = Ring.create 4 and r2 = Ring.create 4 in
  List.iter
    (fun key -> check_int ("shard " ^ key) (Ring.shard r1 ~key) (Ring.shard r2 ~key))
    (keys 200);
  check_int "workers" 4 (Ring.workers r1)

let test_ring_balanced () =
  let r = Ring.create 4 in
  let counts = Array.make 4 0 in
  List.iter (fun key -> counts.(Ring.shard r ~key) <- counts.(Ring.shard r ~key) + 1)
    (keys 2000);
  Array.iteri
    (fun w c ->
      check_bool (Printf.sprintf "worker %d owns >= 5%% (got %d/2000)" w c) true (c >= 100))
    counts

let test_ring_spill () =
  let r = Ring.create 4 in
  let all_alive _ = true in
  (* healthy ring: lookup = shard *)
  List.iter
    (fun key ->
      check_bool ("healthy " ^ key) true (Ring.lookup r ~key ~alive:all_alive = Some (Ring.shard r ~key)))
    (keys 100);
  (* kill worker 2: its keys spill to a live worker, everyone else's
     keys stay put — the cache-affinity property *)
  let alive w = w <> 2 in
  List.iter
    (fun key ->
      let owner = Ring.shard r ~key in
      match Ring.lookup r ~key ~alive with
      | None -> Alcotest.failf "%s: no worker found with 3 live" key
      | Some w ->
        check_bool (key ^ " lands on a live worker") true (w <> 2);
        if owner <> 2 then check_int (key ^ " did not move") owner w)
    (keys 200);
  (* all dead *)
  check_bool "all dead -> None" true (Ring.lookup r ~key:"k" ~alive:(fun _ -> false) = None)

(* ---------------------------------------------------------------- *)
(* Mesh_sock: the channel discipline over a real fork                 *)

let mesh_chans mesh ~proc = Mesh_sock.row_chans (Mesh_sock.ring_row mesh ~proc)

let test_mesh_ping_pong () =
  let mesh = Mesh_sock.create ~procs:2 () in
  match Unix.fork () with
  | 0 ->
    (* child = PE1: echo each tagged value back doubled, tags shifted
       so the parent exercises the per-source stash keyed by tag. *)
    let code =
      try
        let ch = mesh_chans mesh ~proc:1 in
        for i = 0 to 9 do
          match ch.Value_run.recv ~src:0 ~node:0 ~iter:i with
          | Value_run.Single v ->
            ch.Value_run.send ~dst:0 ~node:1 ~iter:i (Value_run.Single (v *. 2.0))
          | Value_run.Pack _ -> raise Exit
        done;
        0
      with _ -> 1
    in
    Unix._exit code
  | pid ->
    let ch = mesh_chans mesh ~proc:0 in
    let single = function Value_run.Single v -> v | Value_run.Pack _ -> nan in
    for i = 0 to 9 do
      ch.Value_run.send ~dst:1 ~node:0 ~iter:i (Value_run.Single (float_of_int i))
    done;
    (* read replies out of order: the stash must hold the rest *)
    let v9 = single (ch.Value_run.recv ~src:1 ~node:1 ~iter:9) in
    let v0 = single (ch.Value_run.recv ~src:1 ~node:1 ~iter:0) in
    check_bool "reply 9" true (v9 = 18.0);
    check_bool "reply 0" true (v0 = 0.0);
    for i = 1 to 8 do
      let v = single (ch.Value_run.recv ~src:1 ~node:1 ~iter:i) in
      check_bool (Printf.sprintf "reply %d" i) true (v = float_of_int (2 * i))
    done;
    Mesh_sock.close_all mesh;
    let _, status = Unix.waitpid [] pid in
    check_bool "child exited clean" true (status = Unix.WEXITED 0)

let test_mesh_dead_peer_is_structured () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 -> Unix._exit 0 (* child = PE1 dies immediately without sending *)
  | pid ->
    (* the parent plays PE0, so it must drop PE1's endpoint just as a
       team member does — otherwise its own copy keeps the link open
       and the death never surfaces as EOF *)
    Unix.close b;
    ignore (Unix.waitpid [] pid);
    Fun.protect ~finally:(fun () -> Unix.close a) @@ fun () ->
    let ch = Mesh_sock.row_chans (Mesh_sock.row ~procs:2 ~proc:0 ~link:(fun _ -> a)) in
    match ch.Value_run.recv ~src:1 ~node:0 ~iter:0 with
    | _ -> Alcotest.fail "recv from a dead peer returned a value"
    | exception Mesh_sock.Link_down { peer = 1; error = Wire.Closed; _ } -> ()
    | exception Mesh_sock.Link_down _ -> ()

(* ---------------------------------------------------------------- *)
(* Runner: spawned processes = interpreter, instance by instance     *)

(* The full front end, with the protocol simulation on: every program
   the runner executes below has had its socket-bound send/recv
   sequence proven by lib/check's protocol audit first. *)
let compile ?(p = 2) ?(k = 2) ~iterations loop =
  let { Depend.loop = flat; graph; _ } = Depend.analyze loop in
  let machine = machine ~p ~k () in
  let schedule = Mimd_core.Cyclic_sched.schedule_iterations ~graph ~machine ~iterations () in
  let program = Mimd_codegen.From_schedule.run schedule in
  let module V = Mimd_check.Validate in
  (match V.error_of ~names:(Graph.name graph) (V.program program) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "protocol audit rejected the program: %s" e);
  (flat, program)

(* A fault that [sabotage] injects must land while the members still
   run the call, but the parent sends it only when it next gets a CPU:
   the members it woke with the request may hold both of a 2-vCPU
   host's for a few ms.  A spawned member starts with a small, fresh
   heap, and a warm call at fig7 n=3000 takes about 3 ms, short enough
   that the call sometimes ended first; at n=20000 a warm call takes
   about 20 ms. *)
let long_iterations = 20000
let long_fig7 = lazy (compile ~iterations:long_iterations (Parser.parse Mimd_workloads.Fig7.source))

let dist_differential ~name ?(p = 2) ?(k = 2) ?(iterations = 12) ?transport loop =
  let flat, program = compile ~p ~k ~iterations loop in
  let outcome = Runner.run ?transport ~loop:flat ~program () in
  (match Value_run.check_against_sequential ~loop:flat ~iterations outcome with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: socket backend vs interp: %s" name e);
  let spec = Value_run.spec ~loop:flat ~iterations in
  (match Value_run.check_instances ~spec outcome.Value_run.instances with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: socket instances vs interp: %s" name e);
  check_bool (name ^ ": spawned >= 1 process") true (outcome.Value_run.domains >= 1)

let test_runner_paper_workloads () =
  List.iter
    (fun (name, src) -> dist_differential ~name (Parser.parse src))
    [
      ("fig1", Mimd_workloads.Fig1.source);
      ("fig7", Mimd_workloads.Fig7.source);
      ("elliptic", Mimd_workloads.Elliptic.source);
    ]

let test_runner_more_processors () =
  dist_differential ~name:"ewf p=3" ~p:3 ~iterations:8
    (Parser.parse Mimd_workloads.Elliptic.source)

let test_runner_high_message_volume () =
  (* Regression: seed 83 at >=100 iterations keeps hundreds of
     messages in flight on one link.  Sizing SO_SNDBUF by wire bytes
     instead of skb truesize made the socket bound tighter than the
     domain mesh's 256-message channels and deadlocked both peers in
     write(2); the buffer must hold [capacity] messages at the
     kernel's per-send accounting. *)
  let loop = Mimd_workloads.Random_loop.generate_loop ~seed:83 () in
  dist_differential ~name:"seed 83 high volume" ~iterations:400 loop

let test_runner_benchmark_shape () =
  (* The exec benchmark's largest op: ewf at p=2, n=1000 over sockets,
     every one of its 17000 instances against the spec. *)
  let flat, program, iterations = ewf_benchmark_shape () in
  let outcome = Runner.run ~loop:flat ~program () in
  let spec = Value_run.spec ~loop:flat ~iterations in
  (match Value_run.check_instances ~spec outcome.Value_run.instances with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ewf n=1000: socket instances vs interp: %s" e);
  match Value_run.check_against_sequential ~loop:flat ~iterations outcome with
  | Ok () -> ()
  | Error e -> Alcotest.failf "ewf n=1000: socket final memory vs interp: %s" e

let test_runner_random_sweep () =
  (* Seeded Section-4 random loops, socket backend vs the interpreter.
     The fuzz oracle's socket leg covers random loops at every trip
     count and over both transports; this slice pins the generator
     the paper's experiments use. *)
  for seed = 1 to 25 do
    let loop = Mimd_workloads.Random_loop.generate_loop ~seed () in
    dist_differential ~name:(Printf.sprintf "seed %d" seed) ~iterations:6 loop
  done

let test_runner_compiled_pack_delivery () =
  (* Satellite of the compiled backend: pack frames over the socket
     transport, delivered into compiled slots and read iterations
     later, must agree bit for bit with the sequential interpreter,
     every instance and the final memory.  The children run a
     form lowered once up front ([`Compiled_form]), as a caller
     holding a cached lowering does. *)
  let loop = Parser.parse Mimd_workloads.Elliptic.source in
  let flat, program = compile ~p:3 ~iterations:30 loop in
  let packed, _stats = Mimd_codegen.Comm_opt.run ~window:6 program in
  let has_pack =
    Array.exists
      (List.exists (function
        | Mimd_codegen.Program.Recv_pack { tags; _ } -> List.length tags > 1
        | _ -> false))
      (Mimd_codegen.Program.to_instrs packed)
  in
  check_bool "optimized program carries multi-value packs" true has_pack;
  let lowered = Mimd_runtime.Lower.run ~loop:flat ~program:packed () in
  let compiled =
    Runner.run ~exec:(`Compiled_form lowered) ~loop:flat ~program:packed ()
  in
  (match Value_run.check_against_sequential ~loop:flat ~iterations:30 compiled with
  | Ok () -> ()
  | Error e -> Alcotest.failf "socket compiled vs interp: %s" e);
  let spec = Value_run.spec ~loop:flat ~iterations:30 in
  check_bool "socket: compiled == spec, every instance" true
    (Value_run.check_instances ~spec compiled.Value_run.instances = Ok ())

let no_children_left () =
  (* The reap contract: after any runner return or failure there must
     be no child processes at all. *)
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | _ -> false

(* A failed call retires its team: every member it had is reaped. *)
let all_reaped pids =
  Array.for_all
    (fun pid ->
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
      | _ -> false)
    pids

let test_runner_kill_child () =
  (* A long enough run that the SIGKILL lands mid-execution.  Either
     the parent notices PE 0's death first (Child_exit) or a peer's
     Link_down report wins the race (Child_error) — both are the
     structured contract; a hang or success is the bug. *)
  let flat, program = Lazy.force long_fig7 in
  let killed = ref false and team = ref [||] in
  (match
     Runner.run
       ~sabotage:(fun pids ->
         killed := true;
         team := pids;
         try Unix.kill pids.(0) Sys.sigkill with Unix.Unix_error _ -> ())
       ~loop:flat ~program ()
   with
  | _ -> Alcotest.fail "killed child but the run reported success"
  | exception Runner.Dist_error (Runner.Child_exit { status; _ }) ->
    check_bool "status names the kill" true (contains status "SIGKILL")
  | exception Runner.Dist_error (Runner.Child_error _) -> ()
  | exception Runner.Dist_error (Runner.Stalled _ as f) ->
    Alcotest.failf "expected a child failure, got %s" (Runner.describe f));
  check_bool "sabotage ran" true !killed;
  check_bool "every member of the failed team reaped" true (all_reaped !team);
  check_bool "no orphan processes" true (no_children_left ())

let test_runner_stall_detected () =
  (* SIGSTOP one child: nobody crashes, nothing reports — the
     gathering must call it a stall and still reap everyone. *)
  let flat, program = Lazy.force long_fig7 in
  let team = ref [||] in
  (match
     Runner.run ~timeout:0.4
       ~sabotage:(fun pids ->
         team := pids;
         try Unix.kill pids.(0) Sys.sigstop with Unix.Unix_error _ -> ())
       ~loop:flat ~program ()
   with
  | _ -> Alcotest.fail "stopped child but the run reported success"
  | exception Runner.Dist_error (Runner.Stalled { waiting; _ }) ->
    check_bool "PE 0 listed as waiting" true (List.mem 0 waiting)
  | exception Runner.Dist_error f ->
    Alcotest.failf "expected Stalled, got %s" (Runner.describe f));
  check_bool "every member of the stalled team reaped" true (all_reaped !team);
  check_bool "no orphan processes" true (no_children_left ())

let test_runner_traces_absorbed () =
  (* While tracing, members capture their own spans and the parent
     absorbs them.  A call that starts a team holds the parent's
     dist.spawn and dist.ready; every call holds dist.ship, dist.run
     and dist.collect, and the members' run.compute on offset tracks.
     The second call compiles the same loop again: the team holds its
     form by fingerprint, so nothing is lowered or shipped; a third,
     different program is. *)
  let fig7 iterations = compile ~iterations (Parser.parse Mimd_workloads.Fig7.source) in
  let traced_call (flat, program) =
    with_tracing (fun () ->
        ignore (Runner.run ~loop:flat ~program ());
        Trace.export ())
  in
  Runner.shutdown ();
  let first = traced_call (fig7 6) in
  let second = traced_call (fig7 6) in
  let third = traced_call (fig7 7) in
  check_bool "a recompiled program is held, not shipped" true
    (contains second "\"form\":\"held\"" && not (contains second "\"form\":\"shipped\""));
  check_bool "a new program is shipped" true (contains third "\"form\":\"shipped\"");
  List.iter
    (fun needle -> check_bool (needle ^ " span present") true (contains first needle))
    [ "dist.spawn"; "dist.ready"; "dist.ship"; "dist.run"; "dist.collect"; "run.compute" ];
  List.iter
    (fun needle -> check_bool (needle ^ " span in a warm call") true (contains second needle))
    [ "dist.ship"; "dist.run"; "dist.collect"; "run.compute" ];
  List.iter
    (fun needle -> check_bool (needle ^ " only when a team starts") false (contains second needle))
    [ "dist.spawn"; "dist.ready" ];
  Runner.shutdown ()

(* ---------------------------------------------------------------- *)
(* Mesh_tcp: rendezvous handshake, backoff dial, TCP framing          *)

let test_tcp_addr_parse () =
  (match Mesh_tcp.addr_of_string "10.1.2.3:9000" with
  | Ok { Mesh_tcp.host = "10.1.2.3"; port = 9000 } -> ()
  | Ok a -> Alcotest.failf "parsed to %s" (Mesh_tcp.addr_to_string a)
  | Error e -> Alcotest.fail e);
  (match Mesh_tcp.addr_of_string ":7777" with
  | Ok { Mesh_tcp.port = 7777; host } ->
    check_bool "empty host means loopback" true (host = "127.0.0.1")
  | Ok _ | Error _ -> Alcotest.fail "empty-host form rejected");
  check_bool "no port -> error" true (Result.is_error (Mesh_tcp.addr_of_string "justahost"));
  check_bool "bad port -> error" true (Result.is_error (Mesh_tcp.addr_of_string "h:nope"));
  match Mesh_tcp.addr_of_string "h:80" with
  | Ok a -> check_string "round trip" "h:80" (Mesh_tcp.addr_to_string a)
  | Error e -> Alcotest.fail e

let test_tcp_handshake_fingerprint_mismatch () =
  (* Dialer and acceptor hold different schedule fingerprints: the
     acceptor must reject (naming the mismatch), and the dialer must
     learn the same verdict from the ack — both fail structurally.
     A socketpair buffers the tiny frames, so this runs single-
     threaded: hello first, then both verdicts. *)
  with_socketpair @@ fun a b ->
  Mesh_tcp.send_hello a ~fingerprint:"schedule-A" ~src:1 ~dst:0;
  (match Mesh_tcp.accept_hello b ~fingerprint:"schedule-B" ~self:0 with
  | _ -> Alcotest.fail "acceptor took a mismatched fingerprint"
  | exception Mesh_tcp.Handshake_failure { proc = 0; peer = 1; reason } ->
    check_bool "acceptor reason names the fingerprint" true (contains reason "fingerprint"));
  match Mesh_tcp.read_ack a ~proc:1 ~peer:0 with
  | () -> Alcotest.fail "dialer was accepted despite the mismatch"
  | exception Mesh_tcp.Handshake_failure { proc = 1; peer = 0; reason } ->
    check_bool "dialer reason names the fingerprint" true (contains reason "fingerprint")

let test_tcp_handshake_wrong_peer () =
  (* A hello addressed to the wrong PE (misrouted roster) is rejected
     just like a bad fingerprint. *)
  with_socketpair @@ fun a b ->
  Mesh_tcp.send_hello a ~fingerprint:"fp" ~src:1 ~dst:5;
  (match Mesh_tcp.accept_hello b ~fingerprint:"fp" ~self:0 with
  | _ -> Alcotest.fail "acceptor took a hello addressed elsewhere"
  | exception Mesh_tcp.Handshake_failure _ -> ());
  match Mesh_tcp.read_ack a ~proc:1 ~peer:0 with
  | () -> Alcotest.fail "dialer accepted"
  | exception Mesh_tcp.Handshake_failure _ -> ()

let test_tcp_handshake_ok_and_framing () =
  (* The happy path over the same fds, then Wire frames across them:
     the TCP mesh is exactly the socketpair mesh's framing on a
     different transport. *)
  with_socketpair @@ fun a b ->
  Mesh_tcp.send_hello a ~fingerprint:"fp" ~src:1 ~dst:0;
  check_int "acceptor learns the dialer's PE" 1
    (Mesh_tcp.accept_hello b ~fingerprint:"fp" ~self:0);
  Mesh_tcp.read_ack a ~proc:1 ~peer:0;
  let batch = List.init 100 (fun i -> ((i mod 4, i), float_of_int i /. 7.0)) in
  Wire.write a batch;
  check_bool "framed batch survives" true (Wire.read b = Ok batch)

let test_tcp_dial_backoff_race () =
  (* The boot race the backoff exists for: the peer's listener is
     bound but not yet listening when we dial.  The child inherits
     the bound fd, sleeps past several ECONNREFUSED dial attempts,
     then listens and accepts; the dial must retry into the live
     listener, handshake, and carry frames. *)
  let lfd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  Unix.bind lfd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname lfd with Unix.ADDR_INET (_, p) -> p | _ -> assert false
  in
  match Unix.fork () with
  | 0 ->
    let code =
      try
        Unix.sleepf 0.15;
        Unix.listen lfd 4;
        let fd, _ = Unix.accept lfd in
        let src = Mesh_tcp.accept_hello fd ~fingerprint:"fp" ~self:0 in
        if src <> 1 then raise Exit;
        (match (Wire.read fd : ((int * int) * float, Wire.error) result) with
        | Ok ((1, 2), 3.5) -> ()
        | _ -> raise Exit);
        Wire.write fd ((2, 1), 7.0);
        0
      with _ -> 1
    in
    Unix._exit code
  | pid ->
    (* our copy closes; the child's keeps the port bound-but-refusing *)
    Unix.close lfd;
    let fd =
      Mesh_tcp.dial_with_backoff ~deadline:10.0 { Mesh_tcp.host = "127.0.0.1"; port }
    in
    Mesh_tcp.send_hello fd ~fingerprint:"fp" ~src:1 ~dst:0;
    Mesh_tcp.read_ack fd ~proc:1 ~peer:0;
    Wire.write fd ((1, 2), 3.5);
    check_bool "reply over the dialed link" true (Wire.read fd = Ok ((2, 1), 7.0));
    Unix.close fd;
    let _, status = Unix.waitpid [] pid in
    check_bool "late listener exited clean" true (status = Unix.WEXITED 0)

let test_runner_fingerprint () =
  let flat1, prog1 = compile ~iterations:6 (Parser.parse Mimd_workloads.Fig1.source) in
  let flat2, prog2 = compile ~iterations:6 (Parser.parse Mimd_workloads.Fig1.source) in
  check_string "same schedule, same fingerprint"
    (Runner.fingerprint ~loop:flat1 ~program:prog1)
    (Runner.fingerprint ~loop:flat2 ~program:prog2);
  let flat3, prog3 = compile ~iterations:7 (Parser.parse Mimd_workloads.Fig1.source) in
  check_bool "different iterations, different fingerprint" true
    (Runner.fingerprint ~loop:flat1 ~program:prog1
    <> Runner.fingerprint ~loop:flat3 ~program:prog3)

let tcp = Runner.Tcp { roster = None; handshake_fault = None }

let test_runner_tcp_differential () =
  List.iter
    (fun (name, p, src) ->
      dist_differential ~name ~p ~iterations:8 ~transport:tcp (Parser.parse src))
    [
      ("fig1 over tcp", 2, Mimd_workloads.Fig1.source);
      ("fig7 over tcp", 2, Mimd_workloads.Fig7.source);
      ("ewf p=3 over tcp", 3, Mimd_workloads.Elliptic.source);
    ];
  check_bool "no orphan processes" true (no_children_left ())

let test_runner_tcp_random_slice () =
  (* A fast slice of the TCP loopback sweep CI runs through the CLI. *)
  for seed = 1 to 8 do
    let loop = Mimd_workloads.Random_loop.generate_loop ~seed () in
    dist_differential
      ~name:(Printf.sprintf "tcp seed %d" seed)
      ~iterations:6 ~transport:tcp loop
  done

let test_runner_tcp_roster_resolution () =
  (* Roster hosts resolve once, in the parent, before any spawn: a
     name is bound and dialed at the one address it resolves to, and
     a name that does not resolve fails the run there, naming the
     host, instead of binding loopback and failing later in a member. *)
  let flat, program = compile ~iterations:8 (Parser.parse Mimd_workloads.Fig7.source) in
  let roster hosts =
    Runner.Tcp
      {
        roster = Some (List.map (fun host -> { Mesh_tcp.host; port = 0 }) hosts);
        handshake_fault = None;
      }
  in
  (match Runner.run ~transport:(roster [ "nosuch.invalid"; "127.0.0.1" ]) ~loop:flat ~program () with
  | _ -> Alcotest.fail "a roster host that does not resolve ran"
  | exception Invalid_argument m ->
    check_bool "error names the host" true (contains m "nosuch.invalid"));
  check_bool "nothing was spawned" true (no_children_left ());
  let outcome = Runner.run ~transport:(roster [ "localhost"; "localhost" ]) ~loop:flat ~program () in
  (match Value_run.check_against_sequential ~loop:flat ~iterations:8 outcome with
  | Ok () -> ()
  | Error e -> Alcotest.failf "named roster host: %s" e);
  check_bool "no orphan processes" true (no_children_left ())

(* A TCP link whose reader never reads still takes
   [Value_run.default_channel_capacity] Single frames before its writer
   blocks: the bound the protocol simulation proves programs safe at.
   PE 1 dials PE 0 and then holds its end open, unread, until the
   parent closes the pipe. *)
let test_tcp_link_holds_capacity () =
  let mesh = Mesh_tcp.create ~fingerprint:"fp" ~procs:2 () in
  let hold_r, hold_w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    let code =
      try
        Unix.close hold_w;
        ignore (Mesh_tcp.connect_all mesh ~proc:1 : Mesh_tcp.conns);
        ignore (Unix.read hold_r (Bytes.create 1) 0 1 : int);
        0
      with _ -> 1
    in
    Unix._exit code
  | pid ->
    Unix.close hold_r;
    let conns = Mesh_tcp.connect_all mesh ~proc:0 in
    Unix.close (Mesh_tcp.listener mesh ~proc:1);
    let fd = Mesh_tcp.link conns ~peer:1 in
    Unix.set_nonblock fd;
    let frame = Bytes.create 64 in
    let len = Wire.encode frame ~node:0 ~iter:0 (Value_run.Single 1.0) in
    let rec fill n =
      if n = 100_000 then n
      else
        match Unix.single_write fd frame 0 len with
        | w when w = len -> fill (n + 1)
        | _ -> n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> n
    in
    let frames = fill 0 in
    Unix.close hold_w;
    Unix.close fd;
    check_bool "PE 1 exited cleanly" true (snd (Unix.waitpid [] pid) = Unix.WEXITED 0);
    check_bool
      (Printf.sprintf "%d frames before the link blocked (capacity %d)" frames
         Value_run.default_channel_capacity)
      true
      (frames >= Value_run.default_channel_capacity)

let test_tcp_unbindable_roster_address () =
  (* A roster address that resolves but is no local interface
     (TEST-NET-1) cannot be bound: [create] names the PE and the
     address, and closes the listener it already bound for PE 0. *)
  let before = open_fds () in
  let roster = [ { Mesh_tcp.host = "127.0.0.1"; port = 0 }; { host = "192.0.2.1"; port = 0 } ] in
  (match Mesh_tcp.create ~roster ~fingerprint:"f" ~procs:2 () with
  | _ -> Alcotest.fail "an unbindable roster address was bound"
  | exception Invalid_argument m ->
    check_bool "error names the PE" true (contains m "PE 1");
    check_bool "error names the address" true (contains m "192.0.2.1:0"));
  check_int "no descriptor left open" before (open_fds ())

let test_runner_tcp_handshake_must_fail () =
  (* One PE presents a corrupted fingerprint at the rendezvous: the
     run must fail structurally (Child_error naming the handshake)
     before any value is computed, and reap everyone. *)
  let flat, program = compile ~iterations:8 (Parser.parse Mimd_workloads.Fig7.source) in
  (match
     Runner.run
       ~transport:(Runner.Tcp { roster = None; handshake_fault = Some 0 })
       ~loop:flat ~program ()
   with
  | _ -> Alcotest.fail "corrupted fingerprint but the run reported success"
  | exception Runner.Dist_error (Runner.Child_error { message; _ }) ->
    check_bool "error names the fingerprint mismatch" true (contains message "fingerprint")
  | exception Runner.Dist_error (Runner.Child_exit _) ->
    (* the race: a rejected peer's _exit can be seen before its
       report; still a structured pre-compute failure *)
    ());
  check_bool "no orphan processes" true (no_children_left ())

(* ---------------------------------------------------------------- *)
(* Respawn: the storm breaker and whole-run retry                     *)

let test_respawn_breaker () =
  let b = Respawn.create ~window:10.0 ~limit:3 () in
  check_bool "1st admitted" true (Respawn.record ~now:0.0 b);
  check_bool "2nd admitted" true (Respawn.record ~now:1.0 b);
  check_bool "3rd admitted" true (Respawn.record ~now:2.0 b);
  check_bool "not tripped at the limit" false (Respawn.tripped b);
  check_bool "4th inside the window refused" false (Respawn.record ~now:3.0 b);
  check_bool "now tripped" true (Respawn.tripped b);
  check_bool "no auto-reset, even far outside the window" false
    (Respawn.record ~now:1000.0 b);
  check_int "total counts admissions only" 3 (Respawn.total b);
  (* sliding window: spaced-out respawns never trip *)
  let s = Respawn.create ~window:1.0 ~limit:2 () in
  check_bool "t=0" true (Respawn.record ~now:0.0 s);
  check_bool "t=2" true (Respawn.record ~now:2.0 s);
  check_bool "t=4" true (Respawn.record ~now:4.0 s);
  check_bool "spaced respawns never trip" false (Respawn.tripped s);
  check_bool "limit < 1 rejected" true
    (match Respawn.create ~limit:0 () with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_runner_respawn_recovers () =
  (* Sabotage exactly the first attempt; with a respawn budget the
     retry must produce the full bit-identical outcome and leave no
     orphans.  (A run is a deterministic pure function, so whole-run
     retry is the sound respawn unit — see the Runner doc.) *)
  let flat, program = Lazy.force long_fig7 in
  let first = ref true and team = ref [||] in
  let outcome =
    Runner.run ~respawn:2
      ~sabotage:(fun pids ->
        if !first then begin
          first := false;
          team := pids;
          try Unix.kill pids.(0) Sys.sigkill with Unix.Unix_error _ -> ()
        end)
      ~loop:flat ~program ()
  in
  (match Value_run.check_against_sequential ~loop:flat ~iterations:long_iterations outcome with
  | Ok () -> ()
  | Error e -> Alcotest.failf "respawned run vs interp: %s" e);
  check_bool "sabotage consumed" false !first;
  check_bool "every member of the failed team reaped" true (all_reaped !team);
  Runner.shutdown ();
  check_bool "no orphan processes" true (no_children_left ())

let test_runner_respawn_exhausted () =
  (* The sabotage kills every attempt: the budget must run out and the
     structured failure surface, still with no orphans. *)
  let flat, program = Lazy.force long_fig7 in
  let attempts = ref 0 and teams = ref [] in
  (match
     Runner.run ~respawn:1
       ~sabotage:(fun pids ->
         incr attempts;
         teams := pids :: !teams;
         try Unix.kill pids.(0) Sys.sigkill with Unix.Unix_error _ -> ())
       ~loop:flat ~program ()
   with
  | _ -> Alcotest.fail "every attempt was killed yet the run succeeded"
  | exception Runner.Dist_error (Runner.Child_exit _ | Runner.Child_error _) -> ());
  check_int "original + one respawn" 2 !attempts;
  check_bool "every member of both teams reaped" true (List.for_all all_reaped !teams);
  check_bool "no orphan processes" true (no_children_left ())

let test_linkprobe () =
  let t = Linkprobe.probe ~rounds:20 ~procs:2 () in
  check_bool "calibrated cycle > 0" true (t.Linkprobe.cycle_ns > 0.0);
  check_int "one link for 2 procs" 1 (List.length t.Linkprobe.links);
  let l = List.hd t.Linkprobe.links in
  check_bool "rtt positive" true (l.Linkprobe.rtt_ns > 0.0);
  check_bool "effective k >= 1" true (l.Linkprobe.effective_k >= 1.0);
  check_bool "render mentions effective k" true
    (contains (Linkprobe.render ~assumed_k:2 t) "effective k");
  Runner.shutdown ();
  check_bool "no orphan processes" true (no_children_left ())

(* ---------------------------------------------------------------- *)
(* Router fleet: subprocess end-to-end                                *)

let exe = Filename.concat ".." (Filename.concat "bin" "mimdloop.exe")

let with_tmp_dir prefix f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  Fun.protect (fun () -> f dir)
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))

let connect_with_retry path =
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.05;
      go ()
  in
  go ()

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let client_connect path =
  let fd = connect_with_retry path in
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let client_close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send_line c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let rpc c line =
  send_line c line;
  Json.parse (input_line c.ic)

let member_string name j = Option.bind (Json.member name j) Json.to_string_opt
let member_bool name j = Option.bind (Json.member name j) Json.to_bool_opt

(* error replies carry {"error":{"kind":...,"message":...}} *)
let error_kind j = Option.bind (Json.member "error" j) (member_string "kind")

let compile_req ~id ~stmt =
  Printf.sprintf
    {|{"id":%d,"op":"compile","loop":"for i = 1 to n { X[i] = X[i-1] + %s; }","iterations":40}|}
    id stmt

(* Start a router fleet as a real subprocess; hand the test a client
   on its socket; shut the fleet down and reap afterwards whatever the
   test did. *)
let with_router ?(workers = 2) ?(extra = []) f =
  with_tmp_dir "mimd-dist-route" @@ fun dir ->
  let sock = Filename.concat dir "router.sock" in
  let args =
    [ exe; "route"; "--workers"; string_of_int workers; "--socket"; sock; "--no-disk-cache" ]
    @ extra
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process exe (Array.of_list args) devnull devnull devnull
  in
  Unix.close devnull;
  Fun.protect
    ~finally:(fun () ->
      (* belt and braces: ask politely (unless the test already shut
         the router down), then make sure *)
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when Sys.file_exists sock -> (
        try
          let c = client_connect sock in
          Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 5.0;
          ignore (rpc c {|{"id":"bye","op":"shutdown"}|});
          client_close c
        with _ -> ())
      | _ | (exception Unix.Unix_error _) -> ());
      let rec reap tries =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when tries > 0 ->
          Unix.sleepf 0.1;
          reap (tries - 1)
        | 0, _ ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        | _ -> ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
      in
      reap 50)
    (fun () -> f sock)

let stats c =
  match Json.member "stats" (rpc c {|{"id":"s","op":"stats"}|}) with
  | Some j -> j
  | None -> Alcotest.fail "stats reply has no stats member"

let worker_pids j =
  match Json.member "workers" j with
  | Some (Json.List ws) ->
    List.filter_map
      (fun w ->
        match
          (Option.bind (Json.member "pid" w) Json.to_int_opt, member_bool "alive" w)
        with
        | Some pid, Some alive -> Some (pid, alive)
        | _ -> None)
      ws
  | _ -> []

let test_router_e2e () =
  with_router ~workers:2 @@ fun sock ->
  let c = client_connect sock in
  Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
  check_bool "ping ok" true (member_bool "ok" (rpc c {|{"id":"p","op":"ping"}|}) = Some true);
  (* the same loop twice: deterministic sharding sends both to the
     same worker, the repeat hits its memory cache *)
  let r1 = rpc c (compile_req ~id:1 ~stmt:"Y[i]") in
  let r2 = rpc c (compile_req ~id:2 ~stmt:"Y[i]") in
  check_bool "compile 1 ok" true (member_bool "ok" r1 = Some true);
  check_bool "compile 2 ok" true (member_bool "ok" r2 = Some true);
  check_bool "repeat served from cache" true
    (member_string "tier" r2 = Some "memory" || member_string "tier" r2 = Some "disk");
  let st = stats c in
  check_bool "2 live workers" true
    (Option.bind (Json.member "live" st) Json.to_int_opt = Some 2);
  let pids = worker_pids st in
  check_int "stats lists both workers" 2 (List.length pids);
  (* metrics: the routing registry is exposed through the router *)
  let m = rpc c {|{"id":"m","op":"metrics"}|} in
  let text = Option.value ~default:"" (member_string "metrics" m) in
  List.iter
    (fun needle -> check_bool (needle ^ " exported") true (contains text needle))
    [ "mimd_route_requests_total"; "mimd_route_shard_hits_total"; "mimd_route_inflight" ]

let test_router_shard_key_deterministic () =
  (* The digest the router shards by is a pure function of the compile
     request's semantic fields — equal requests land on equal workers
     across runs and processes. *)
  let params line =
    match Mimd_server.Protocol.request_of_line line with
    | Ok (Mimd_server.Protocol.Compile { params; _ }) -> params
    | _ -> Alcotest.fail "not a compile request"
  in
  let a = params {|{"id":1,"op":"compile","loop":"for i = 1 to n { X[i] = X[i-1]; }"}|} in
  let b = params {|{"id":99,"op":"compile","loop":"for i = 1 to n { X[i] = X[i-1]; }"}|} in
  check_string "id does not affect the shard" (Router.shard_key a) (Router.shard_key b);
  let c' = params {|{"id":1,"op":"compile","loop":"for i = 1 to n { X[i] = Y[i-1]; }"}|} in
  check_bool "different loop, different key" true (Router.shard_key a <> Router.shard_key c')

let test_router_failover () =
  with_router ~workers:2 @@ fun sock ->
  let c = client_connect sock in
  Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
  let st = stats c in
  let pids = worker_pids st in
  check_int "two workers up" 2 (List.length pids);
  (* murder one worker out from under the router *)
  let victim, _ = List.hd pids in
  Unix.kill victim Sys.sigkill;
  Unix.sleepf 0.3;
  (* every compile must still succeed: keys that belonged to the dead
     worker spill to the survivor *)
  List.iteri
    (fun i stmt ->
      let r = rpc c (compile_req ~id:(100 + i) ~stmt) in
      check_bool (Printf.sprintf "compile %d ok after worker death" i) true
        (member_bool "ok" r = Some true))
    [ "Y[i]"; "Y[i] * 2"; "Y[i] + 3"; "Y[i] - 4" ];
  let st = stats c in
  check_bool "one live worker" true
    (Option.bind (Json.member "live" st) Json.to_int_opt = Some 1);
  check_bool "death counted" true
    (Option.bind (Json.member "worker_deaths" st) Json.to_int_opt = Some 1)

let test_router_admission_shed () =
  (* One in-flight slot, one worker domain, and a burst of distinct
     fat requests down a single connection: the router reads the burst
     far faster than the worker compiles, so the admission bound must
     shed some of it with the structured overload error — and the
     accepted requests must all complete. *)
  with_router ~workers:1 ~extra:[ "--max-inflight"; "1"; "--jobs"; "1" ] @@ fun sock ->
  let c = client_connect sock in
  Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
  let burst = 12 in
  for i = 0 to burst - 1 do
    send_line c
      (Printf.sprintf
         {|{"id":%d,"op":"compile","loop":"for i = 1 to n { A[i] = A[i-1] + B[i]; B[i] = B[i-1] * %d; C[i] = A[i] + B[i]; D[i] = C[i-1] - A[i]; E[i] = D[i] + C[i]; }","iterations":300,"processors":3}|}
         i (i + 2))
  done;
  let ok = ref 0 and shed = ref 0 in
  for _ = 1 to burst do
    let r = Json.parse (input_line c.ic) in
    match (member_bool "ok" r, error_kind r) with
    | Some true, _ -> incr ok
    | _, Some "overload" -> incr shed
    | _, Some other -> Alcotest.failf "unexpected error kind %s" other
    | _ -> Alcotest.fail "reply with neither ok nor error"
  done;
  check_bool (Printf.sprintf "some requests shed (ok=%d shed=%d)" !ok !shed) true (!shed > 0);
  check_bool "accepted requests all completed" true (!ok + !shed = burst);
  check_bool "at least one accepted" true (!ok > 0)

let member_int name j = Option.bind (Json.member name j) Json.to_int_opt

let test_router_respawn () =
  (* Kill a worker under --respawn: the router must re-fork it,
     boot-ping and re-admit it, and the fleet must answer
     compiles at full strength with the respawn visible in stats and
     in mimd_dist_respawns_total. *)
  with_router ~workers:2 ~extra:[ "--respawn"; "2" ] @@ fun sock ->
  let c = client_connect sock in
  Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
  let st = stats c in
  (match Json.member "respawn" st with
  | Some r -> check_bool "supervision on" true (member_bool "enabled" r = Some true)
  | None -> Alcotest.fail "stats has no respawn object");
  let pids = worker_pids st in
  check_int "two workers up" 2 (List.length pids);
  let victim, _ = List.hd pids in
  Unix.kill victim Sys.sigkill;
  (* poll: death noticed, slot re-forked, boot ping answered *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait_recovered () =
    let st = stats c in
    if member_int "live" st = Some 2 && member_int "respawns" st = Some 1 then st
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "fleet never recovered: live=%s respawns=%s"
        (Option.fold ~none:"?" ~some:string_of_int (member_int "live" st))
        (Option.fold ~none:"?" ~some:string_of_int (member_int "respawns" st))
    else begin
      Unix.sleepf 0.2;
      wait_recovered ()
    end
  in
  let st = wait_recovered () in
  check_bool "death counted" true (member_int "worker_deaths" st = Some 1);
  (* the respawned worker has a fresh pid in the same slot *)
  let pids' = worker_pids st in
  check_int "still two workers listed" 2 (List.length pids');
  check_bool "victim's pid replaced" true (not (List.mem_assoc victim pids'));
  (* the respawn is in the supervision event list, for the victim's slot *)
  check_bool "stats.events holds a respawn for slot 0" true
    (match Json.member "events" st with
    | Some (Json.List evs) ->
      List.exists
        (fun e -> member_string "kind" e = Some "respawn" && member_int "worker" e = Some 0)
        evs
    | _ -> false);
  List.iteri
    (fun i stmt ->
      let r = rpc c (compile_req ~id:(200 + i) ~stmt) in
      check_bool (Printf.sprintf "compile %d ok after respawn" i) true
        (member_bool "ok" r = Some true))
    [ "Y[i]"; "Y[i] * 5"; "Y[i] + 6"; "Y[i] - 7" ];
  let m = rpc c {|{"id":"m","op":"metrics"}|} in
  let text = Option.value ~default:"" (member_string "metrics" m) in
  check_bool "mimd_dist_respawns_total exported" true
    (contains text "mimd_dist_respawns_total 1")

let test_router_empty_loop_releases_slot () =
  (* An empty loop body is a parse error the worker answers: each such
     request gets one structured reply and gives its in-flight slot
     back, so a valid compile after more of them than --max-inflight
     is still admitted.  A lost reply fails on the read timeout
     instead of hanging. *)
  with_router ~extra:[ "--max-inflight"; "2" ] @@ fun sock ->
  let c = client_connect sock in
  Unix.setsockopt_float c.fd Unix.SO_RCVTIMEO 10.0;
  Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
  for id = 1 to 3 do
    let r = rpc c (Printf.sprintf {|{"id":%d,"op":"compile","loop":"for i = 1 to n { }"}|} id) in
    check_bool (Printf.sprintf "empty loop %d is a parse error" id) true
      (error_kind r = Some "parse")
  done;
  check_bool "valid compile admitted" true
    (member_bool "ok" (rpc c (compile_req ~id:4 ~stmt:"Y[i]")) = Some true);
  check_bool "every slot released" true (member_int "inflight" (stats c) = Some 0)

let test_router_retune_unknown () =
  (* retune is not an op: the router answers with a structured
     protocol error naming it, and the connection stays usable. *)
  with_router ~workers:1 @@ fun sock ->
  let c = client_connect sock in
  Fun.protect ~finally:(fun () -> client_close c) @@ fun () ->
  let r = rpc c {|{"id":1,"op":"retune","k":5}|} in
  check_bool "retune rejected" true (member_bool "ok" r = Some false);
  check_bool "kind protocol" true (error_kind r = Some "protocol");
  check_bool "message names retune" true
    (match Option.bind (Json.member "error" r) (member_string "message") with
    | Some m -> contains m "\"retune\""
    | None -> false);
  check_bool "ping still answers" true
    (member_bool "ok" (rpc c {|{"id":2,"op":"ping"}|}) = Some true)

let test_router_shutdown_drains () =
  (* A shutdown from one client must not cut another client's admitted
     compile off: the router drains, answers the compile admitted before
     the shutdown and refuses the one sent after it, and only then
     exits. *)
  with_router ~workers:1 ~extra:[ "--jobs"; "1" ] @@ fun sock ->
  let a = client_connect sock and b = client_connect sock in
  Unix.setsockopt_float a.fd Unix.SO_RCVTIMEO 20.0;
  Fun.protect ~finally:(fun () -> client_close a; client_close b) @@ fun () ->
  send_line a
    {|{"id":1,"op":"compile","loop":"for i = 1 to n { A[i] = A[i-1] + B[i]; B[i] = B[i-1] * 2; C[i] = A[i] + B[i]; D[i] = C[i-1] - A[i]; E[i] = D[i] + C[i]; }","iterations":100000,"processors":3}|};
  (* long enough for the router to admit A's compile, far shorter than
     the compile itself (over a second here) *)
  Unix.sleepf 0.1;
  check_bool "bye" true (member_bool "bye" (rpc b {|{"id":"s","op":"shutdown"}|}) = Some true);
  send_line a (compile_req ~id:2 ~stmt:"Y[i]");
  let replies =
    List.init 2 (fun _ ->
        match input_line a.ic with
        | line -> Json.parse line
        | exception End_of_file -> Alcotest.fail "EOF instead of a reply")
  in
  let by_id id = List.find_opt (fun r -> member_int "id" r = Some id) replies in
  check_bool "admitted compile answered" true
    (Option.bind (by_id 1) (member_bool "ok") = Some true);
  check_bool "compile after shutdown refused" true
    (Option.bind (by_id 2) error_kind = Some "overload");
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Sys.file_exists sock && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.05
  done;
  check_bool "router exits after draining" false (Sys.file_exists sock)

let test_router_stalled_client () =
  (* Client A pipelines thousands of memory-hit compiles and reads no
     reply; client B on the same (only) worker must still be answered
     promptly. *)
  with_router ~workers:1 @@ fun sock ->
  let a = client_connect sock and b = client_connect sock in
  Fun.protect ~finally:(fun () -> client_close a; client_close b) @@ fun () ->
  check_bool "warm" true (member_bool "ok" (rpc a (compile_req ~id:0 ~stmt:"Y[i]")) = Some true);
  let line = compile_req ~id:1 ~stmt:"Y[i]" ^ "\n" in
  let blob = String.concat "" (List.init 1000 (fun _ -> line)) in
  Unix.set_nonblock a.fd;
  let sent = ref 0 and off = ref 0 in
  let deadline = Unix.gettimeofday () +. 2.0 in
  while Unix.gettimeofday () < deadline do
    match Unix.single_write_substring a.fd blob !off (String.length blob - !off) with
    | n ->
      sent := !sent + n;
      off := (!off + n) mod String.length blob
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Unix.sleepf 0.05
  done;
  let pipelined = !sent / String.length line in
  check_bool (Printf.sprintf "thousands pipelined (%d)" pipelined) true (pipelined >= 1000);
  Unix.setsockopt_float b.fd Unix.SO_RCVTIMEO 10.0;
  let t0 = Unix.gettimeofday () in
  let r =
    match rpc b (compile_req ~id:2 ~stmt:"Y[i] * 9") with
    | r -> r
    | exception Sys_error e -> Alcotest.failf "client B got no answer: %s" e
  in
  let waited = Unix.gettimeofday () -. t0 in
  check_bool "B answered" true (member_bool "ok" r = Some true);
  check_bool (Printf.sprintf "B answered within 3 s (%.2f s)" waited) true (waited < 3.0)

let test_runner_fixed_cells () =
  List.iter
    (fun p ->
      dist_differential ~name:(Printf.sprintf "fixed cells p=%d" p) ~p
        (Parser.parse fixed_cell_source))
    [ 2; 3 ]

(* ---------------------------------------------------------------- *)
(* The link: binary frame codec, allocation, spin budget, park        *)

(* Floats that must survive the codec bit for bit: NaNs with payloads
   and either sign, both zeros, infinities, subnormals. *)
let awkward_floats =
  [|
    Int64.float_of_bits 0x7FF8_0000_0000_0001L;
    Int64.float_of_bits 0xFFF4_0000_DEAD_BEEFL;
    Int64.float_of_bits 0x7FF0_0000_0000_0001L;
    -0.;
    0.;
    infinity;
    neg_infinity;
    Float.min_float /. 4.;
    Float.max_float;
  |]

let gen_link_frame =
  QCheck2.Gen.(
    let tag_int = oneof [ oneofl [ min_int; max_int; 0; -1 ]; int ] in
    let value =
      oneof [ oneofa awkward_floats; map Int64.float_of_bits ui64; float ]
    in
    let tag = pair tag_int tag_int in
    let payload =
      oneof
        [
          map (fun v -> Value_run.Single v) value;
          map
            (fun entries -> Value_run.Pack (Array.of_list entries))
            (list_size (int_range 0 64) (pair tag value));
        ]
    in
    pair tag payload)

let bits v = Int64.bits_of_float v

let same_frame ((n, i), p) ((n', i'), p') =
  n = n' && i = i'
  &&
  match (p, p') with
  | Value_run.Single v, Value_run.Single v' -> bits v = bits v'
  | Value_run.Pack a, Value_run.Pack a' ->
    Array.length a = Array.length a'
    && Array.for_all2 (fun ((n, i), v) ((n', i'), v') -> n = n' && i = i' && bits v = bits v') a a'
  | _ -> false

let encode_frame frame =
  let (node, iter), payload = frame in
  let buf = Bytes.create (Wire.frame_size payload) in
  ignore (Wire.encode buf ~node ~iter payload : int);
  buf

(* Decode [len] bytes at [pos] frame by frame: the whole frames in
   order and the error that ended it. *)
let decode_all buf ~pos ~len =
  let rec go pos len acc =
    match Wire.decode buf ~pos ~len with
    | Ok ((_, payload) as frame) ->
      let size = Wire.frame_size payload in
      go (pos + size) (len - size) (frame :: acc)
    | Error e -> (List.rev acc, e)
  in
  go pos len []

let test_link_codec_prop =
  qtest "wire: link codec round-trips every prefix bit for bit"
    QCheck2.Gen.(pair (int_range 0 7) (list_size (int_range 1 5) gen_link_frame))
    (fun (skip, frames) -> Printf.sprintf "%d frame(s) after %d junk byte(s)" (List.length frames) skip)
    (fun (skip, frames) ->
      let encoded = List.map encode_frame frames in
      let stream = Bytes.concat Bytes.empty (Bytes.make skip 'j' :: encoded) in
      let ends =
        List.rev
          (snd
             (List.fold_left
                (fun (off, acc) b -> (off + Bytes.length b, (off + Bytes.length b) :: acc))
                (0, []) encoded))
      in
      let total = Bytes.length stream - skip in
      let ok = ref true in
      for len = 0 to total do
        let whole = List.length (List.filter (fun e -> e <= len) ends) in
        let got, stop = decode_all stream ~pos:skip ~len in
        let at_boundary = len = 0 || List.mem len ends in
        ok :=
          !ok
          && List.length got = whole
          && List.for_all2 same_frame got (List.filteri (fun i _ -> i < whole) frames)
          && stop = if at_boundary then Wire.Closed else Wire.Truncated
      done;
      !ok)

let test_link_codec_errors () =
  let single = encode_frame ((3, 4), Value_run.Single 1.5) in
  let pack = encode_frame ((3, 4), Value_run.Pack [| ((1, 2), 2.5); ((5, 6), 7.5) |]) in
  let decode b = snd (decode_all b ~pos:0 ~len:(Bytes.length b)) in
  let expect name want b =
    let got = decode b in
    if got <> want then
      Alcotest.failf "%s: got %s, want %s" name (Wire.error_to_string got)
        (Wire.error_to_string want)
  in
  let edit b f =
    let b = Bytes.copy b in
    f b;
    b
  in
  expect "marshal magic" Wire.Bad_magic (edit single (fun b -> Bytes.blit_string Wire.magic 0 b 0 4));
  expect "bad magic on a 2-byte prefix" Wire.Bad_magic (Bytes.of_string "MX");
  expect "oversized length" (Wire.Oversized 0x7FFF_FFFF)
    (edit single (fun b -> Bytes.set_int32_be b 4 0x7FFF_FFFFl));
  expect "unknown kind" (Wire.Unknown_kind 7) (edit single (fun b -> Bytes.set_uint8 b 24 7));
  expect "Single with a Pack's length" (Wire.Length_mismatch 30)
    (edit (Bytes.extend single 0 5) (fun b -> Bytes.set_int32_be b 4 30l));
  expect "Pack whose count disagrees with its length" (Wire.Length_mismatch (Bytes.length pack - 8))
    (edit pack (fun b -> Bytes.set_int32_be b 25 3l));
  expect "body shorter than a tag" (Wire.Length_mismatch 4)
    (edit single (fun b -> Bytes.set_int32_be b 4 4l));
  (* the same errors through a link: garbage on the stream is the
     link's Bad_magic, an EOF inside a frame is Truncated *)
  with_socketpair @@ fun a b ->
  let link = Mesh_sock.Link.create b in
  ignore (Unix.write a single 0 20);
  Unix.close a;
  check_bool "mid-frame EOF -> Truncated" true (Mesh_sock.Link.pull link = Error Wire.Truncated)

let test_link_alloc_per_frame () =
  (* An in-order Single frame, sent and pulled over a socketpair, must
     cost a bounded handful of minor words: the sent tag, and the
     pulled tag, payload, frame and result blocks (15-17 words).  The
     marshalled frame this link replaced cost 54. *)
  with_socketpair @@ fun a b ->
  let tx = Mesh_sock.Link.create a and rx = Mesh_sock.Link.create b in
  let payload = Value_run.Single 2.5 in
  let round i =
    Mesh_sock.Link.send tx ~node:1 ~iter:i payload;
    match Mesh_sock.Link.pull rx with
    | Ok ((1, j), Value_run.Single 2.5) when j = i -> ()
    | _ -> Alcotest.fail "frame lost or reordered"
  in
  for i = 0 to 99 do
    round i
  done;
  let frames = 2000 in
  let before = Gc.minor_words () in
  for i = 1 to frames do
    round i
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int frames in
  check_bool (Printf.sprintf "%.1f minor words per frame <= 20" words) true (words <= 20.0)

let test_link_burst_and_big_frame () =
  (* A burst of frames read in few reads, with a Pack several times
     the reader's initial buffer in the middle: every frame comes out
     whole, in order, bit for bit. *)
  with_socketpair @@ fun a b ->
  let tx = Mesh_sock.Link.create a and rx = Mesh_sock.Link.create b in
  let frames =
    List.init 40 (fun i -> ((0, i), Value_run.Single (float_of_int i)))
    @ [ ((1, 0), Value_run.Pack (Array.init 300 (fun i -> ((i, -i), awkward_floats.(i mod 9))))) ]
    @ List.init 40 (fun i -> ((2, i), Value_run.Single (-.float_of_int i)))
  in
  List.iter (fun ((node, iter), payload) -> Mesh_sock.Link.send tx ~node ~iter payload) frames;
  List.iteri
    (fun i want ->
      match Mesh_sock.Link.pull rx with
      | Ok got -> check_bool (Printf.sprintf "frame %d" i) true (same_frame want got)
      | Error e -> Alcotest.failf "frame %d: %s" i (Wire.error_to_string e))
    frames

(* ---------------------------------------------------------------- *)
(* Ring links: a shared ring per direction, the socketpair a doorbell *)

(* A two-PE mesh and a forked peer playing PE 1 over its ring link:
   [peer] runs in the child (its exit code is the child's), [parent]
   gets the mesh, to take PE 0's link from, and the child's pid.  The
   mesh is gone from this process when it returns. *)
let with_ring_peer ~peer parent =
  let mesh = Mesh_sock.create ~procs:2 () in
  match Unix.fork () with
  | 0 ->
    let code =
      try
        Mesh_sock.close_link mesh ~proc:0 ~peer:1;
        peer (Mesh_sock.ring_link mesh ~proc:1 ~peer:0)
      with _ -> 2
    in
    Unix._exit code
  | pid ->
    Fun.protect ~finally:(fun () -> Mesh_sock.close_all mesh) @@ fun () ->
    Mesh_sock.close_link mesh ~proc:1 ~peer:0;
    parent mesh pid

let stop_frame = ((-1, -1), Value_run.Single 0.0)

(* Echo every frame back until the stop frame: exit 0. *)
let ring_echo link =
  let rec go () =
    match Mesh_sock.Link.pull link with
    | Ok (tag, _) when tag = fst stop_frame -> 0
    | Ok ((node, iter), payload) ->
      Mesh_sock.Link.send link ~node ~iter payload;
      go ()
    | Error _ -> 3
  in
  go ()

let send_frame link ((node, iter), payload) = Mesh_sock.Link.send link ~node ~iter payload

let expect_exit name pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, st ->
    Alcotest.failf "%s: peer %s" name
      (match st with
      | Unix.WEXITED n -> Printf.sprintf "exited %d" n
      | Unix.WSIGNALED n -> Printf.sprintf "killed by signal %d" n
      | Unix.WSTOPPED n -> Printf.sprintf "stopped by signal %d" n)

let test_ring_ping_pong_wraps () =
  (* 20 480 frames, one in eight a Pack of up to 300 entries, echoed in
     bursts of up to 40: about 7 MiB each way, so every frame position
     straddles the 256 KiB wrap point many times over.  Every frame
     comes back whole, in order, bit for bit. *)
  let rng = Random.State.make [| fuzz_seed |] in
  let value () =
    match Random.State.int rng 4 with
    | 0 -> awkward_floats.(Random.State.int rng (Array.length awkward_floats))
    | _ -> Int64.float_of_bits (Random.State.bits64 rng)
  in
  let frame i =
    if Random.State.int rng 8 = 0 then
      ( (1, i),
        Value_run.Pack
          (Array.init (1 + Random.State.int rng 300) (fun j -> ((j, i - j), value ()))) )
    else ((0, i), Value_run.Single (value ()))
  in
  let frames = 20_480 in
  let bytes = ref 0 in
  with_ring_peer ~peer:ring_echo @@ fun mesh pid ->
  let link = Mesh_sock.ring_link mesh ~proc:0 ~peer:1 in
  let rec go i =
    if i < frames then begin
      let burst = Array.init (min (frames - i) (1 + Random.State.int rng 40)) (fun j -> frame (i + j)) in
      Array.iter
        (fun ((_, payload) as f) ->
          bytes := !bytes + Wire.frame_size payload;
          send_frame link f)
        burst;
      Array.iteri
        (fun j want ->
          match Mesh_sock.Link.pull link with
          | Ok got when same_frame want got -> ()
          | Ok _ -> Alcotest.failf "frame %d came back different" (i + j)
          | Error e -> Alcotest.failf "frame %d: %s" (i + j) (Wire.error_to_string e))
        burst;
      go (i + Array.length burst)
    end
  in
  go 0;
  send_frame link stop_frame;
  expect_exit "echo" pid;
  check_bool
    (Printf.sprintf "%d bytes wrap the ring at least 8 times" !bytes)
    true
    (!bytes > 8 * Mesh_sock.buffer_bytes)

let test_ring_full_parks_writer () =
  (* The reader is stopped while its writer sends more than the ring
     holds: the writer parks, and finishes once the reader runs. *)
  let count = (Mesh_sock.buffer_bytes / 33) + 5000 in
  let reader link =
    let rec go i =
      match Mesh_sock.Link.pull link with
      | Ok (tag, _) when tag = fst stop_frame -> if i = count then 0 else 4
      | Ok ((0, j), Value_run.Single v) when j = i && v = float_of_int i -> go (i + 1)
      | _ -> 5
    in
    go 0
  in
  with_ring_peer ~peer:reader @@ fun mesh pid ->
  Unix.kill pid Sys.sigstop;
  let waker =
    match Unix.fork () with
    | 0 ->
      Unix.sleepf 0.1;
      (try Unix.kill pid Sys.sigcont with Unix.Unix_error _ -> ());
      Unix._exit 0
    | w -> w
  in
  let link = Mesh_sock.ring_link mesh ~proc:0 ~peer:1 in
  let t0 = Unix.gettimeofday () in
  for i = 0 to count - 1 do
    send_frame link ((0, i), Value_run.Single (float_of_int i))
  done;
  send_frame link stop_frame;
  let waited = Unix.gettimeofday () -. t0 in
  expect_exit "waker" waker;
  expect_exit "reader" pid;
  check_bool (Printf.sprintf "the writer waited for the stopped reader (%.3f s)" waited) true
    (waited >= 0.05)

(* A peer that kills itself after 50 ms, far past any spin: the link's
   other end is parked by then. *)
let dies_later _link =
  Unix.sleepf 0.05;
  Unix.kill (Unix.getpid ()) Sys.sigkill;
  6

let expect_link_down name f =
  match f () with
  | () -> Alcotest.failf "%s: no Link_down" name
  | exception (Mesh_sock.Link_down { proc = 0; peer = 1; _ } as e) ->
    check_bool (name ^ ": " ^ Printexc.to_string e) true
      (contains (Printexc.to_string e) "link down: PE 0 lost its link to PE 1")

let test_ring_dead_peer_parked () =
  with_ring_peer ~peer:dies_later (fun mesh pid ->
      let ch = Mesh_sock.row_chans (Mesh_sock.ring_row mesh ~proc:0) in
      expect_link_down "parked reader" (fun () ->
          ignore (ch.Value_run.recv ~src:1 ~node:0 ~iter:0));
      ignore (Unix.waitpid [] pid));
  with_ring_peer ~peer:dies_later (fun mesh pid ->
      let ch = Mesh_sock.row_chans (Mesh_sock.ring_row mesh ~proc:0) in
      expect_link_down "parked writer" (fun () ->
          for i = 0 to Mesh_sock.buffer_bytes do
            ch.Value_run.send ~dst:1 ~node:0 ~iter:i (Value_run.Single 1.0)
          done);
      ignore (Unix.waitpid [] pid))

let test_ring_alloc_per_frame () =
  (* The bound of the socket link above, over a ring pair. *)
  let mesh = Mesh_sock.create ~procs:2 () in
  Fun.protect ~finally:(fun () -> Mesh_sock.close_all mesh) @@ fun () ->
  let tx = Mesh_sock.ring_link mesh ~proc:0 ~peer:1
  and rx = Mesh_sock.ring_link mesh ~proc:1 ~peer:0 in
  let payload = Value_run.Single 2.5 in
  let round i =
    Mesh_sock.Link.send tx ~node:1 ~iter:i payload;
    match Mesh_sock.Link.pull rx with
    | Ok ((1, j), Value_run.Single 2.5) when j = i -> ()
    | _ -> Alcotest.fail "frame lost or reordered"
  in
  for i = 0 to 99 do
    round i
  done;
  let frames = 2000 in
  let before = Gc.minor_words () in
  for i = 1 to frames do
    round i
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int frames in
  check_bool (Printf.sprintf "%.1f minor words per frame <= 20" words) true (words <= 20.0)

let test_team_unmaps_its_rings () =
  (* Five team starts and retirements: the members hold the rings, the
     parent never keeps them past the spawns. *)
  Runner.shutdown ();
  let flat, program = compile ~iterations:40 (Parser.parse Mimd_workloads.Fig7.source) in
  let before = ring_mappings "self" in
  for i = 1 to 5 do
    let member = ref 0 in
    let count pids = member := ring_mappings (string_of_int pids.(0)) in
    ignore (Runner.run ~sabotage:count ~loop:flat ~program ());
    check_bool (Printf.sprintf "cycle %d: a member maps the rings" i) true (!member > 0);
    check_int (Printf.sprintf "cycle %d: the parent maps no ring" i) before (ring_mappings "self");
    Runner.shutdown ()
  done;
  check_int "after five retirements" before (ring_mappings "self");
  check_bool "no orphan processes" true (no_children_left ())

let test_spin_budget_rule () =
  let cap = Mesh_sock.spin_cap_ns in
  let b = Mesh_sock.Spin.create () in
  let budget () = Mesh_sock.Spin.budget_ns b in
  check_int "starts at the cap" cap (budget ());
  Mesh_sock.Spin.arrived b;
  check_int "capped" cap (budget ());
  Mesh_sock.Spin.wasted b;
  check_int "a wasted spin halves" (cap / 2) (budget ());
  Mesh_sock.Spin.wasted b;
  Mesh_sock.Spin.arrived b;
  check_int "an arrival adds cap/8" ((cap / 4) + (cap / 8)) (budget ());
  let rec drain n = if budget () > 0 then (Mesh_sock.Spin.wasted b; drain (n + 1)) else n in
  check_int "18.75 us halves to 0 in five misses (under 1 us is 0)" 5 (drain 0);
  Mesh_sock.Spin.wasted b;
  check_int "0 stays 0" 0 (budget ());
  let parks_to_probe () =
    let rec go n =
      Mesh_sock.Spin.parked_idle b;
      if budget () = 0 then go (n + 1) else n + 1
    in
    go 0
  in
  for i = 1 to 15 do
    Mesh_sock.Spin.parked_idle b;
    check_int (Printf.sprintf "idle park %d keeps 0" i) 0 (budget ())
  done;
  Mesh_sock.Spin.parked_idle b;
  check_int "the 16th idle park probes at the cap" cap (budget ());
  Mesh_sock.Spin.wasted b;
  check_int "a wasted probe goes straight back to 0" 0 (budget ());
  check_int "a wasted probe doubles the parks to the next" 32 (parks_to_probe ());
  check_int "the next probe is at the cap" cap (budget ());
  Mesh_sock.Spin.wasted b;
  check_int "and doubles again" 64 (parks_to_probe ());
  for _ = 1 to 10 do
    Mesh_sock.Spin.wasted b;
    ignore (parks_to_probe ())
  done;
  Mesh_sock.Spin.wasted b;
  check_int "up to 1024 parks" 1024 (parks_to_probe ());
  Mesh_sock.Spin.arrived b;
  check_int "a probe a frame ends keeps the cap" cap (budget ());
  Mesh_sock.Spin.wasted b;
  check_int "after it a miss halves again" (cap / 2) (budget ());
  while budget () > 0 do
    Mesh_sock.Spin.wasted b
  done;
  check_int "and the interval is back to 16" 16 (parks_to_probe ())

let test_runner_park_fallback () =
  (* SIGSTOP PE 1 for 50 ms mid-run: PE 0's spins run dry, it parks
     in select, and the run still completes bit-identically, over
     socketpairs and over TCP.  The socket run is traced: some recv
     must say it parked. *)
  let iterations = 1000 in
  let flat, program = compile ~iterations (Parser.parse Mimd_workloads.Fig7.source) in
  let spec = Value_run.spec ~loop:flat ~iterations in
  let pause pids =
    (try Unix.kill pids.(1) Sys.sigstop with Unix.Unix_error _ -> ());
    Unix.sleepf 0.05;
    try Unix.kill pids.(1) Sys.sigcont with Unix.Unix_error _ -> ()
  in
  List.iter
    (fun (name, transport) ->
      let outcome, json =
        with_tracing (fun () ->
            let o = Runner.run ~sabotage:pause ~transport ~loop:flat ~program () in
            (o, Trace.export ()))
      in
      (match Value_run.check_instances ~spec outcome.Value_run.instances with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: paused run vs interp: %s" name e);
      (match Value_run.check_against_sequential ~loop:flat ~iterations outcome with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: paused run final memory: %s" name e);
      check_bool (name ^ ": a recv parked") true (contains json "\"parked\":\"true\""))
    [ ("sockets", Runner.Unix_sockets); ("tcp", tcp) ];
  check_bool "no orphan processes" true (no_children_left ())

let test_runner_failure_names_same_pe () =
  (* The corrupted PE 0 fails its handshake and so does its peer; the
     report must name PE 0 every time, not whichever came first. *)
  let flat, program = compile ~iterations:8 (Parser.parse Mimd_workloads.Fig7.source) in
  let once () =
    match
      Runner.run
        ~transport:(Runner.Tcp { roster = None; handshake_fault = Some 0 })
        ~loop:flat ~program ()
    with
    | _ -> Alcotest.fail "corrupted fingerprint but the run reported success"
    | exception Runner.Dist_error f -> Runner.describe f
  in
  let first = once () in
  check_bool ("names PE 0: " ^ first) true (contains first "child for PE 0 failed");
  for i = 2 to 12 do
    check_string (Printf.sprintf "run %d reports the same failure" i) first (once ())
  done;
  check_bool "no orphan processes" true (no_children_left ())

(* ---------------------------------------------------------------- *)
(* The warm team: reuse, retirement, lifetime                        *)

let spawns () =
  Mimd_obs.Metrics.counter_value
    (Mimd_obs.Metrics.counter Mimd_obs.Metrics.default "mimd_dist_spawns_total")

let expect_interp name ~iterations flat (outcome : Value_run.outcome) =
  let spec = Value_run.spec ~loop:flat ~iterations in
  (match Value_run.check_instances ~spec outcome.instances with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: instances vs interp: %s" name e);
  match Value_run.check_against_sequential ~loop:flat ~iterations outcome with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: final memory vs interp: %s" name e

let kill_pe0 team pids =
  team := pids;
  try Unix.kill pids.(0) Sys.sigkill with Unix.Unix_error _ -> ()

let test_runner_spawn_counter () =
  Runner.shutdown ();
  let lowered (flat, program) = (flat, program, Mimd_runtime.Lower.run ~loop:flat ~program ()) in
  let progs =
    [|
      lowered (compile ~iterations:40 (Parser.parse Mimd_workloads.Fig7.source));
      lowered (compile ~iterations:20 (Parser.parse Mimd_workloads.Elliptic.source));
    |]
  in
  let f0 = spawns () in
  for i = 0 to 19 do
    let flat, program, l = progs.(i mod 2) in
    ignore (Runner.run ~exec:(`Compiled_form l) ~loop:flat ~program ())
  done;
  check_int "20 calls at p=2 over two programs spawn one team" 2 (spawns () - f0);
  let f1 = spawns () in
  let flat, program = Lazy.force long_fig7 in
  let first = ref true and team = ref [||] in
  ignore
    (Runner.run ~respawn:1
       ~sabotage:(fun pids ->
         if !first then begin
           first := false;
           kill_pe0 team pids
         end)
       ~loop:flat ~program ());
  check_bool "the killed team is reaped" true (all_reaped !team);
  check_int "a killed member plus one respawn spawn one new team" 2 (spawns () - f1);
  let f2 = spawns () in
  let flat, program, _ = progs.(0) in
  ignore (Runner.run ~transport:tcp ~loop:flat ~program ());
  check_int "a TCP call spawns p members" 2 (spawns () - f2);
  Runner.shutdown ();
  check_bool "no orphan processes" true (no_children_left ())

let test_runner_team_reuse () =
  (* Every call on a live team starts from fresh tables: two programs
     back to back, a program after a failed call, a wider team after a
     narrower one, and a form evicted from the members and shipped
     again — each bit-identical to the interpreter. *)
  Runner.shutdown ();
  let fig7 = compile ~iterations:40 (Parser.parse Mimd_workloads.Fig7.source) in
  let ewf = compile ~iterations:20 (Parser.parse Mimd_workloads.Elliptic.source) in
  let run ?exec name ~iterations (flat, program) =
    expect_interp name ~iterations flat (Runner.run ?exec ~loop:flat ~program ())
  in
  let f0 = spawns () in
  run "fig7" ~iterations:40 fig7;
  run "ewf after fig7" ~iterations:20 ewf;
  run "fig7 after ewf" ~iterations:40 fig7;
  check_int "one team ran all three" 2 (spawns () - f0);
  let flat, program = Lazy.force long_fig7 in
  let team = ref [||] in
  (match Runner.run ~sabotage:(kill_pe0 team) ~loop:flat ~program () with
  | _ -> Alcotest.fail "killed a member but the call succeeded"
  | exception Runner.Dist_error _ -> ());
  check_bool "the failed team is reaped" true (all_reaped !team);
  run "ewf after a failed call" ~iterations:20 ewf;
  let f1 = spawns () in
  run "ewf at p=3 after p=2" ~iterations:8
    (compile ~p:3 ~iterations:8 (Parser.parse Mimd_workloads.Elliptic.source));
  check_int "a call at p=3 starts a team of 3" 3 (spawns () - f1);
  let progs =
    Array.init 9 (fun i ->
        let flat, program = compile ~iterations:(40 + i) (Parser.parse Mimd_workloads.Fig7.source) in
        (flat, program, Mimd_runtime.Lower.run ~loop:flat ~program ()))
  in
  let run_form name i =
    let flat, program, l = progs.(i) in
    run name ~exec:(`Compiled_form l) ~iterations:(40 + i) (flat, program)
  in
  Array.iteri (fun i _ -> run_form (Printf.sprintf "form %d" i) i) progs;
  run_form "an evicted form, shipped again" 0;
  Runner.shutdown ();
  check_bool "no orphan processes" true (no_children_left ())

let test_runner_unread_frame_retires () =
  (* A program whose PE sends one frame twice leaves the duplicate
     unread: the call still succeeds, but the team is retired so the
     frame cannot reach the next call. *)
  Runner.shutdown ();
  let iterations = 12 in
  let flat, program = compile ~iterations (Parser.parse Mimd_workloads.Fig7.source) in
  let programs = Array.copy (Mimd_codegen.Program.to_instrs program) in
  let is_send = function Mimd_codegen.Program.Send _ -> true | _ -> false in
  let sender =
    let rec find j =
      if List.exists is_send programs.(j) then j else find (j + 1)
    in
    find 0
  in
  let dup = List.find is_send (List.rev programs.(sender)) in
  programs.(sender) <- programs.(sender) @ [ dup ];
  let extra = Mimd_codegen.Program.of_instrs program.Mimd_codegen.Program.graph programs in
  let f0 = spawns () in
  expect_interp "extra send" ~iterations flat (Runner.run ~loop:flat ~program:extra ());
  expect_interp "the next call" ~iterations flat (Runner.run ~loop:flat ~program ());
  check_int "the next call ran on a new team" 4 (spawns () - f0);
  Runner.shutdown ();
  check_bool "no orphan processes" true (no_children_left ())

(* PE 0 only sends here: it finishes its worker and settles, waiting
   for PE 1's end marker. *)
let send_only_pe0 () =
  let flat, program =
    compile ~iterations:12
      (Parser.parse
         "for i = 1 to n { A[i] = A[i-1] * 3 + A[i-1] * 2 + 1; B[i] = B[i-1] * 2 + B[i-1] * 3 + A[i-1]; }")
  in
  let instrs = (Mimd_codegen.Program.to_instrs program).(0) in
  check_bool "PE 0 sends and receives nothing" true
    (List.exists (function Mimd_codegen.Program.Send _ -> true | _ -> false) instrs
    && not
         (List.exists
            (function
              | Mimd_codegen.Program.Recv _ | Mimd_codegen.Program.Recv_pack _ -> true | _ -> false)
            instrs));
  (flat, program)

let test_runner_settle_names_the_dead_peer () =
  (* PE 1 is stopped between calls, so in the next call PE 0 runs its
     sends and waits in settle for PE 1's end marker; then PE 1 is
     killed.  PE 0's report is the symptom ("link down:"), and the
     failure names PE 1 — the PE that died — on every run. *)
  Runner.shutdown ();
  let flat, program = send_only_pe0 () in
  let team = ref [||] in
  ignore (Runner.run ~sabotage:(fun pids -> team := pids) ~loop:flat ~program ());
  (try Unix.kill !team.(1) Sys.sigstop with Unix.Unix_error _ -> ());
  (match
     Runner.run
       ~sabotage:(fun pids ->
         Unix.sleepf 0.1;
         try Unix.kill pids.(1) Sys.sigkill with Unix.Unix_error _ -> ())
       ~loop:flat ~program ()
   with
  | _ -> Alcotest.fail "killed PE 1 but the call succeeded"
  | exception Runner.Dist_error (Runner.Child_exit { proc = 1; status }) ->
    check_bool "status names the kill" true (contains status "SIGKILL")
  | exception Runner.Dist_error f -> Alcotest.failf "expected PE 1's death, got %s" (Runner.describe f));
  check_bool "every member of the failed team reaped" true (all_reaped !team);
  check_bool "no orphan processes" true (no_children_left ())

let test_runner_ship_stall () =
  (* A member stopped between calls reads no request.  The next call
     ships a form larger than the control socket's buffer, so its
     write cannot finish: the stall bound covers the ship too, and the
     call fails Stalled instead of blocking the parent. *)
  Runner.shutdown ();
  let flat, program = compile ~iterations:12 (Parser.parse Mimd_workloads.Fig7.source) in
  let team = ref [||] in
  ignore (Runner.run ~sabotage:(fun pids -> team := pids) ~loop:flat ~program ());
  (try Unix.kill !team.(1) Sys.sigstop with Unix.Unix_error _ -> ());
  let flat, program, _ = ewf_benchmark_shape () in
  (match Runner.run ~timeout:0.5 ~loop:flat ~program () with
  | _ -> Alcotest.fail "stopped a member but the call succeeded"
  | exception Runner.Dist_error (Runner.Stalled { waiting; _ }) ->
    check_bool "PE 1 listed as waiting" true (List.mem 1 waiting)
  | exception Runner.Dist_error f -> Alcotest.failf "expected Stalled, got %s" (Runner.describe f));
  check_bool "every member of the stalled team reaped" true (all_reaped !team);
  check_bool "no orphan processes" true (no_children_left ())

let test_team_holds_no_pipe () =
  (* A pipe made before the team starts: once this process closes its
     write end, the read end sees EOF, so no member holds it. *)
  Runner.shutdown ();
  let r, w = Unix.pipe () in
  let flat, program = compile ~iterations:12 (Parser.parse Mimd_workloads.Fig7.source) in
  ignore (Runner.run ~loop:flat ~program ());
  Unix.close w;
  let eof =
    match Unix.select [ r ] [] [] 2.0 with
    | [], _, _ -> false
    | _ -> Unix.read r (Bytes.create 1) 0 1 = 0
  in
  Unix.close r;
  check_bool "the pipe sees EOF with the team alive" true eof;
  Runner.shutdown ();
  check_bool "no orphan processes" true (no_children_left ())

(* Gone or a zombie: a pid no process runs as any more. *)
let gone pid =
  match In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | exception Sys_error _ -> true
  | stat -> (
    match String.rindex_opt stat ')' with
    | Some i when i + 2 < String.length stat -> stat.[i + 2] = 'Z' || stat.[i + 2] = 'X'
    | _ -> true)

let test_team_dies_with_its_parent () =
  (* A helper starts a team and exits without Runner.shutdown: every
     member sees end of stream on its control socket and exits. *)
  Runner.shutdown ();
  let flat, program = compile ~iterations:12 (Parser.parse Mimd_workloads.Fig7.source) in
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    (try
       ignore
         (Runner.run
            ~sabotage:(fun pids ->
              Marshal.to_channel oc (pids : int array) [];
              flush oc)
            ~loop:flat ~program ())
     with _ -> ());
    Unix._exit 0
  | helper ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let pids = (Marshal.from_channel ic : int array) in
    In_channel.close ic;
    ignore (Unix.waitpid [] helper);
    let deadline = Unix.gettimeofday () +. 2.0 in
    let rec wait () =
      Array.for_all gone pids
      || Unix.gettimeofday () < deadline
         && begin
           Unix.sleepf 0.01;
           wait ()
         end
    in
    check_int "the helper's team had 2 members" 2 (Array.length pids);
    check_bool "no member outlives its parent by 2 s" true (wait ());
    check_bool "no orphan processes" true (no_children_left ())

(* A member's resident set, in MB, from /proc/<pid>/status. *)
let vm_rss_mb pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l -> Scanf.sscanf_opt l "VmRSS: %d kB" (fun kb -> kb / 1024))
  |> Option.get

let test_team_holds_no_parent_heap () =
  (* 128 MB live and touched here: a forked member would count the
     pages it shares with this process as resident. *)
  Runner.shutdown ();
  let ballast = Array.init 16 (fun i -> Bytes.make (8 * 1024 * 1024) (Char.chr (i + 1))) in
  let flat, program = compile ~iterations:12 (Parser.parse Mimd_workloads.Fig7.source) in
  let rss = ref [||] in
  expect_interp "fig7" ~iterations:12 flat
    (Runner.run ~sabotage:(fun pids -> rss := Array.map vm_rss_mb pids) ~loop:flat ~program ());
  check_int "the ballast is live" 16 (Array.length (Sys.opaque_identity ballast));
  check_int "two members" 2 (Array.length !rss);
  Array.iteri
    (fun j mb -> check_bool (Printf.sprintf "member %d: VmRSS %d MB < 64 MB" j mb) true (mb < 64))
    !rss;
  Runner.shutdown ();
  check_bool "no orphan processes" true (no_children_left ())

(* A form lowered from one program is refused for another at the same
   p, by every executor and before any member starts: fig7's form
   handed in with ewf's program.  A copy of fig7's program, equal but
   not the same value, still takes it. *)
let test_form_for_another_program () =
  let module Lower = Mimd_runtime.Lower in
  let module Exec_compiled = Mimd_runtime.Exec_compiled in
  let iterations = 30 in
  let fig7, fig7_program = compile ~iterations (Parser.parse Mimd_workloads.Fig7.source) in
  let ewf, ewf_program = compile ~iterations (Parser.parse Mimd_workloads.Elliptic.source) in
  let form = Lower.run ~loop:fig7 ~program:fig7_program () in
  Runner.shutdown ();
  Exec_compiled.shutdown ();
  let domains () =
    Mimd_obs.Metrics.counter_value
      (Mimd_obs.Metrics.counter Mimd_obs.Metrics.default "mimd_runtime_spawns_total")
  in
  let members0 = spawns () and domains0 = domains () in
  let refused name caller run =
    Alcotest.check_raises name
      (Invalid_argument (caller ^ ": lowered form is for another program"))
      (fun () -> ignore (run () : Value_run.outcome))
  in
  refused "sockets" "Runner.run" (fun () ->
      Runner.run ~exec:(`Compiled_form form) ~loop:ewf ~program:ewf_program ());
  refused "domains" "Exec_compiled.run" (fun () ->
      Exec_compiled.run ~lowered:form ~loop:ewf ~program:ewf_program ());
  refused "inline" "Exec_compiled.run_inline" (fun () ->
      Exec_compiled.run_inline ~lowered:form ~loop:ewf ~program:ewf_program ());
  check_bool "no process started" true (spawns () = members0);
  check_bool "no domain started" true (domains () = domains0);
  let copy =
    {
      fig7_program with
      code =
        Array.map
          (fun (c : Mimd_codegen.Program.code) ->
            { Mimd_codegen.Program.instrs = Array.copy c.instrs; pool = Array.copy c.pool })
          fig7_program.code;
    }
  in
  expect_interp "the form on an equal program, inline" ~iterations fig7
    (Exec_compiled.run_inline ~lowered:form ~loop:fig7 ~program:copy ());
  expect_interp "the form on its own program, sockets" ~iterations fig7
    (Runner.run ~exec:(`Compiled_form form) ~loop:fig7 ~program:fig7_program ());
  Runner.shutdown ()

let suite =
  [
    Alcotest.test_case "wire: round-trip + clean close" `Quick test_wire_roundtrip;
    Alcotest.test_case "wire: bad magic" `Quick test_wire_bad_magic;
    Alcotest.test_case "wire: oversized length" `Quick test_wire_oversized;
    Alcotest.test_case "wire: truncated frame" `Quick test_wire_truncated;
    Alcotest.test_case "wire: undecodable payload" `Quick test_wire_decode_failure;
    Alcotest.test_case "wire: framing fuzz" `Quick test_wire_fuzz;
    Alcotest.test_case "ring: deterministic" `Quick test_ring_deterministic;
    Alcotest.test_case "ring: balanced" `Quick test_ring_balanced;
    Alcotest.test_case "ring: spill on death" `Quick test_ring_spill;
    Alcotest.test_case "mesh: ping-pong over fork" `Quick test_mesh_ping_pong;
    Alcotest.test_case "mesh: dead peer -> Link_down" `Quick test_mesh_dead_peer_is_structured;
    Alcotest.test_case "runner: paper workloads differential" `Quick test_runner_paper_workloads;
    Alcotest.test_case "runner: ewf at p=3" `Quick test_runner_more_processors;
    Alcotest.test_case "runner: high message volume" `Quick
      test_runner_high_message_volume;
    Alcotest.test_case "runner: 25-seed random sweep" `Slow test_runner_random_sweep;
    Alcotest.test_case "runner: compiled pack delivery" `Quick
      test_runner_compiled_pack_delivery;
    Alcotest.test_case "runner: killed child -> structured error" `Quick test_runner_kill_child;
    Alcotest.test_case "runner: stalled child -> watchdog" `Quick test_runner_stall_detected;
    Alcotest.test_case "runner: child traces absorbed" `Quick test_runner_traces_absorbed;
    Alcotest.test_case "tcp: addr parsing" `Quick test_tcp_addr_parse;
    Alcotest.test_case "tcp: handshake fingerprint mismatch" `Quick
      test_tcp_handshake_fingerprint_mismatch;
    Alcotest.test_case "tcp: handshake wrong peer" `Quick test_tcp_handshake_wrong_peer;
    Alcotest.test_case "tcp: handshake ok + framing" `Quick test_tcp_handshake_ok_and_framing;
    Alcotest.test_case "tcp: dial backoff beats the boot race" `Quick
      test_tcp_dial_backoff_race;
    Alcotest.test_case "runner: schedule fingerprint" `Quick test_runner_fingerprint;
    Alcotest.test_case "runner: TCP loopback differential" `Quick
      test_runner_tcp_differential;
    Alcotest.test_case "runner: TCP 8-seed random slice" `Slow test_runner_tcp_random_slice;
    Alcotest.test_case "runner: TCP handshake must-fail" `Quick
      test_runner_tcp_handshake_must_fail;
    Alcotest.test_case "respawn: storm breaker" `Quick test_respawn_breaker;
    Alcotest.test_case "runner: respawn recovers a killed run" `Quick
      test_runner_respawn_recovers;
    Alcotest.test_case "runner: respawn budget exhausts" `Quick
      test_runner_respawn_exhausted;
    Alcotest.test_case "linkprobe: effective k measured" `Quick test_linkprobe;
    Alcotest.test_case "router: end-to-end over 2 workers" `Quick test_router_e2e;
    Alcotest.test_case "router: shard key deterministic" `Quick test_router_shard_key_deterministic;
    Alcotest.test_case "router: failover on worker death" `Quick test_router_failover;
    Alcotest.test_case "router: admission control sheds" `Quick test_router_admission_shed;
    Alcotest.test_case "router: respawn recovers the fleet" `Quick test_router_respawn;
    Alcotest.test_case "router: retune is an unknown op" `Quick test_router_retune_unknown;
    Alcotest.test_case "runner: ewf p=2 n=1000 (benchmark shape)" `Quick
      test_runner_benchmark_shape;
    Alcotest.test_case "router: empty loops release their slots" `Quick
      test_router_empty_loop_releases_slot;
    Alcotest.test_case "router: shutdown drains admitted work" `Quick
      test_router_shutdown_drains;
    Alcotest.test_case "router: a stalled client cannot stall the fleet" `Quick
      test_router_stalled_client;
    Alcotest.test_case "runner: TCP roster hosts resolve once, before any fork" `Quick
      test_runner_tcp_roster_resolution;
    Alcotest.test_case "tcp: an unbindable roster address names its PE" `Quick
      test_tcp_unbindable_roster_address;
    Alcotest.test_case "tcp: a link with no reader holds the channel capacity" `Quick
      test_tcp_link_holds_capacity;
    Alcotest.test_case "runner: fixed cells match interp (p=2,3)" `Quick
      test_runner_fixed_cells;
      Alcotest.test_case "wire: link frame errors are named" `Quick test_link_codec_errors;
    test_link_codec_prop;
    Alcotest.test_case "link: bounded allocation per Single frame" `Quick
      test_link_alloc_per_frame;
    Alcotest.test_case "link: spin budget rule" `Quick test_spin_budget_rule;
    Alcotest.test_case "ring link: a forked ping-pong wraps the ring, bit for bit" `Quick
      test_ring_ping_pong_wraps;
    Alcotest.test_case "ring link: a full ring parks its writer" `Quick test_ring_full_parks_writer;
    Alcotest.test_case "ring link: a peer killed while its link is parked is Link_down" `Quick
      test_ring_dead_peer_parked;
    Alcotest.test_case "ring link: bounded allocation per Single frame" `Quick
      test_ring_alloc_per_frame;
    Alcotest.test_case "ring link: five team cycles leave no ring mapped" `Quick
      test_team_unmaps_its_rings;
    Alcotest.test_case "link: a burst around a frame bigger than the buffer" `Quick
      test_link_burst_and_big_frame;
    Alcotest.test_case "runner: a paused PE parks its peer (sockets, TCP)" `Quick
      test_runner_park_fallback;
    Alcotest.test_case "runner: a failure names the same PE every run" `Quick
      test_runner_failure_names_same_pe;
    Alcotest.test_case "team: a spawn counter pins one team per p" `Quick
      test_runner_spawn_counter;
    Alcotest.test_case "team: calls reuse one team, bit for bit" `Quick test_runner_team_reuse;
    Alcotest.test_case "team: a frame left unread retires it" `Quick
      test_runner_unread_frame_retires;
    Alcotest.test_case "team: members hold no inherited pipe" `Quick test_team_holds_no_pipe;
    Alcotest.test_case "team: a peer dying during settle is named" `Quick
      test_runner_settle_names_the_dead_peer;
    Alcotest.test_case "team: a stopped member stalls the ship" `Quick test_runner_ship_stall;
    Alcotest.test_case "team: members die with their parent" `Quick test_team_dies_with_its_parent;
    Alcotest.test_case "team: a member holds none of its parent's heap" `Quick
      test_team_holds_no_parent_heap;
    Alcotest.test_case "form check: a form for another program is refused by every executor"
      `Quick test_form_for_another_program;
  ]
