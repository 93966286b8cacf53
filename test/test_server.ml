(* The compile service: wire protocol, two-tier cache, worker pool —
   including contention tests firing concurrent clients at the server
   and property tests on the persistent store.  Anything that could
   hang (pool, channel loop, socket server) runs under a hard
   watchdog that fails the whole process instead of wedging CI. *)

open Helpers
module Json = Mimd_server.Json
module Protocol = Mimd_server.Protocol
module Disk_cache = Mimd_server.Disk_cache
module Pool = Mimd_server.Pool
module Service = Mimd_server.Service
module Server = Mimd_server.Server
module Schedule_cache = Mimd_runtime.Schedule_cache
module Full_sched = Mimd_core.Full_sched
module Schedule = Mimd_core.Schedule
module Config = Mimd_machine.Config

(* Hard watchdog: deadlock in a concurrency test must fail loudly, not
   wedge the suite. *)
let with_watchdog ?(seconds = 60.0) f =
  let done_flag = Atomic.make false in
  let guard =
    Thread.create
      (fun () ->
        let deadline = Unix.gettimeofday () +. seconds in
        while (not (Atomic.get done_flag)) && Unix.gettimeofday () < deadline do
          Thread.delay 0.05
        done;
        if not (Atomic.get done_flag) then begin
          Printf.eprintf "\n[test_server] watchdog: test exceeded %.0f s — deadlock?\n%!"
            seconds;
          Stdlib.exit 125
        end)
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set done_flag true;
      Thread.join guard)
    f

let tmp_dir prefix =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.bits ()))
  in
  Unix.mkdir dir 0o755;
  dir

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let prefix_loop = "for i = 1 to n { X[i] = X[i-1] + Y[i]; }"

(* Distinct loops by distinct array names: distinct fingerprints. *)
let named_loop j =
  Printf.sprintf "for i = 1 to n { V%d[i] = V%d[i-1] * W%d[i] + U%d[i]; }" j j j j

(* ---------------------------------------------------------------- *)
(* JSON                                                               *)

let test_json_roundtrip () =
  let cases =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 1.5;
      Json.String "a\"b\\c\nd";
      Json.List [ Json.Int 1; Json.String "x"; Json.Obj [] ];
      Json.Obj [ ("k", Json.List [ Json.Null ]); ("m", Json.Int 7) ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      check_bool (Printf.sprintf "roundtrip %s" s) true (Json.parse s = v))
    cases;
  check_bool "unicode escape" true (Json.parse {|"Aé"|} = Json.String "A\xc3\xa9");
  check_bool "nested spaces" true
    (Json.parse " { \"a\" : [ 1 , 2.5 , true ] } "
    = Json.Obj [ ("a", Json.List [ Json.Int 1; Json.Float 2.5; Json.Bool true ]) ])

let test_json_errors () =
  List.iter
    (fun s -> check_bool (Printf.sprintf "reject %S" s) true (Json.parse_opt s = None))
    [ ""; "{"; "[1,"; "tru"; "{\"a\" 1}"; "\"unterminated"; "1 2"; "{\"a\":}" ]

(* ---------------------------------------------------------------- *)
(* Protocol                                                           *)

let test_protocol_compile_defaults () =
  match Protocol.request_of_line (Printf.sprintf {|{"id":7,"op":"compile","loop":%s}|}
                                    (Json.to_string (Json.String prefix_loop))) with
  | Ok (Protocol.Compile { id; params }) ->
    check_bool "id echoed" true (id = Json.Int 7);
    check_string "loop" prefix_loop params.Protocol.loop;
    check_int "default processors" 2 params.Protocol.processors;
    check_int "default k" 2 params.Protocol.k;
    check_int "default iterations" 100 params.Protocol.iterations;
    check_bool "no deadline" true (params.Protocol.deadline_ms = None);
    check_bool "no validate override" true (params.Protocol.validate = None)
  | _ -> Alcotest.fail "expected a compile request"

let test_protocol_rejects () =
  let bad line =
    match Protocol.request_of_line line with Error _ -> true | Ok _ -> false
  in
  check_bool "not json" true (bad "][");
  check_bool "no op" true (bad {|{"id":1}|});
  check_bool "unknown op" true (bad {|{"op":"frobnicate"}|});
  check_bool "retune is not an op" true (bad {|{"op":"retune","k":5}|});
  check_bool "compile without loop" true (bad {|{"op":"compile"}|});
  check_bool "bad field type" true (bad {|{"op":"compile","loop":"x","iterations":"ten"}|});
  (* The id must survive a decode failure so the error reply is
     attributable. *)
  match Protocol.request_of_line {|{"id":"req-9","op":"compile"}|} with
  | Error (id, _) -> check_bool "id recovered from bad request" true (id = Json.String "req-9")
  | Ok _ -> Alcotest.fail "expected a decode failure"

let test_protocol_reply_shape () =
  let line =
    Protocol.reply_to_line
      (Protocol.Error { id = Json.Int 3; kind = Protocol.Deadline; message = "late" })
  in
  let j = Json.parse line in
  check_bool "ok false" true (Json.member "ok" j = Some (Json.Bool false));
  check_bool "id echoed" true (Json.member "id" j = Some (Json.Int 3));
  match Json.member "error" j with
  | Some e ->
    check_bool "kind" true (Json.member "kind" e = Some (Json.String "deadline"))
  | None -> Alcotest.fail "no error object"

(* ---------------------------------------------------------------- *)
(* LRU schedule cache                                                 *)

let small_full () =
  let graph = self_loop () in
  Full_sched.run ~graph ~machine:(machine ()) ~iterations:5 ()

let test_cache_lru_promotion () =
  let c = Schedule_cache.create ~capacity:2 () in
  let full = small_full () in
  Schedule_cache.add c ~key:"a" full;
  Schedule_cache.add c ~key:"b" full;
  (* Touch "a": it becomes most recently used, so inserting "c" must
     evict "b", not "a". *)
  check_bool "a present" true (Schedule_cache.find c ~key:"a" <> None);
  Schedule_cache.add c ~key:"c" full;
  check_bool "a survived (promoted)" true (Schedule_cache.find c ~key:"a" <> None);
  check_bool "b evicted (LRU)" true (Schedule_cache.find c ~key:"b" = None);
  check_bool "c present" true (Schedule_cache.find c ~key:"c" <> None);
  let st = Schedule_cache.stats c in
  check_int "one eviction" 1 st.Schedule_cache.evictions;
  check_int "entries" 2 st.Schedule_cache.entries

let test_cache_eviction_counter () =
  let c = Schedule_cache.create ~capacity:1 () in
  let full = small_full () in
  Schedule_cache.add c ~key:"a" full;
  Schedule_cache.add c ~key:"b" full;
  Schedule_cache.add c ~key:"c" full;
  check_int "two evictions" 2 (Schedule_cache.stats c).Schedule_cache.evictions;
  Schedule_cache.clear c;
  let st = Schedule_cache.stats c in
  check_int "cleared evictions" 0 st.Schedule_cache.evictions;
  check_int "cleared entries" 0 st.Schedule_cache.entries

(* ---------------------------------------------------------------- *)
(* Disk cache                                                         *)

let same_schedule a b =
  Full_sched.parallel_time a = Full_sched.parallel_time b
  && Full_sched.total_processors a = Full_sched.total_processors b
  && Schedule.entries a.Full_sched.schedule = Schedule.entries b.Full_sched.schedule
  && a.Full_sched.folded = b.Full_sched.folded

let test_disk_roundtrip_and_corruption () =
  let dir = tmp_dir "mimd-disk" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let d = Disk_cache.create ~dir in
  let full = small_full () in
  let key = String.make 32 'f' in
  check_bool "cold miss" true (Disk_cache.find d ~key = None);
  Disk_cache.store d ~key full;
  (match Disk_cache.find d ~key with
  | Some got -> check_bool "roundtrip equal" true (same_schedule full got)
  | None -> Alcotest.fail "stored entry not found");
  let path = Disk_cache.path_of d ~key in
  (* Truncation: silently not cached. *)
  let data = In_channel.with_open_bin path In_channel.input_all in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (String.sub data 0 (String.length data / 2)));
  check_bool "truncated entry ignored" true (Disk_cache.find d ~key = None);
  (* Corruption in the payload: digest mismatch, silently not cached. *)
  let corrupt = Bytes.of_string data in
  let pos = String.length data - 3 in
  Bytes.set corrupt pos (Char.chr (Char.code (Bytes.get corrupt pos) lxor 0xff));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc corrupt);
  check_bool "corrupted entry ignored" true (Disk_cache.find d ~key = None);
  (* Stale format version: ignored, not deserialised. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc ("mimdsched 0 nonesuch\n" ^ String.sub data 20 40));
  check_bool "stale version ignored" true (Disk_cache.find d ~key = None);
  (* A v2 entry (written while Config.t still carried a per-link
     matrix) under this very compiler, with an intact digest and
     payload: only the stamp tells it apart, and it must be a miss. *)
  let nl = String.index data '\n' in
  let body = String.sub data nl (String.length data - nl) in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Printf.sprintf "mimdsched 2 %s%s" Sys.ocaml_version body));
  check_bool "v2 entry ignored" true (Disk_cache.find d ~key = None);
  (* Likewise a v3 entry, whose schedule index was still a map. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Printf.sprintf "mimdsched 3 %s%s" Sys.ocaml_version body));
  check_bool "v3 entry ignored" true (Disk_cache.find d ~key = None);
  (* And a v4 entry, whose schedule kept its dense index in flat
     fields rather than in a [Schedule.Index.t]. *)
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc (Printf.sprintf "mimdsched 4 %s%s" Sys.ocaml_version body));
  check_bool "v4 entry ignored" true (Disk_cache.find d ~key = None);
  (* Overwriting heals the entry. *)
  Disk_cache.store d ~key full;
  check_bool "healed after re-store" true (Disk_cache.find d ~key <> None);
  let st = Disk_cache.stats d in
  check_int "stores" 2 st.Disk_cache.stores;
  check_int "hits" 2 st.Disk_cache.hits;
  check_int "misses" 7 st.Disk_cache.misses

let test_disk_concurrent_writers () =
  (* The router fleet points every worker process at one cache
     directory, so same-key stores race both across domains and (via
     the per-pid part of the temp name) across processes.  Hammer one
     key from many domains: every store must land whole — a torn or
     vanished entry is the bug the unique temp names prevent. *)
  let dir = tmp_dir "mimd-disk-conc" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let d = Disk_cache.create ~dir in
  let full = small_full () in
  let key = String.make 32 'c' in
  let writers =
    List.init 6 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 25 do
              Disk_cache.store d ~key full
            done))
  in
  let readers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let torn = ref 0 in
            for _ = 1 to 50 do
              match Disk_cache.find d ~key with
              | Some got when same_schedule full got -> ()
              | Some _ -> incr torn
              | None -> () (* a miss before the first store landed is fine *)
            done;
            !torn))
  in
  List.iter Domain.join writers;
  let torn = List.fold_left (fun acc r -> acc + Domain.join r) 0 readers in
  check_int "no torn reads" 0 torn;
  (match Disk_cache.find d ~key with
  | Some got -> check_bool "final entry whole" true (same_schedule full got)
  | None -> Alcotest.fail "entry missing after concurrent stores");
  check_int "no store errors" 0 (Disk_cache.stats d).Disk_cache.store_errors;
  (* no temp droppings left behind *)
  let shard = Filename.dirname (Disk_cache.path_of d ~key) in
  let leftovers =
    Array.to_list (Sys.readdir shard)
    |> List.filter (fun f -> String.length f >= 4 && String.sub f 0 4 = ".tmp")
  in
  check_int "no temp files left" 0 (List.length leftovers)

(* Property: the store round-trips arbitrary compiled schedules, and a
   single flipped byte anywhere in the file reads as "not cached",
   never as a wrong schedule and never as a crash. *)
let prop_disk_roundtrip =
  qtest ~count:40 "disk store roundtrips Full_sched.t; corruption degrades to recompile"
    QCheck2.Gen.(pair gen_cyclic_graph (int_range 0 1_000_000))
    (fun (spec, salt) -> Printf.sprintf "%s salt=%d" (print_graph_spec spec) salt)
    (fun (spec, salt) ->
      let graph = build_cyclic spec in
      let dir = tmp_dir "mimd-diskprop" in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let d = Disk_cache.create ~dir in
      let machine = machine () in
      let full = Full_sched.run ~graph ~machine ~iterations:12 () in
      let key = Schedule_cache.fingerprint ~graph ~machine ~iterations:12 () in
      Disk_cache.store d ~key full;
      let roundtrip =
        match Disk_cache.find d ~key with
        | Some got -> same_schedule full got
        | None -> false
      in
      let path = Disk_cache.path_of d ~key in
      let data = In_channel.with_open_bin path In_channel.input_all in
      let pos = salt mod String.length data in
      let corrupt = Bytes.of_string data in
      Bytes.set corrupt pos (Char.chr (Char.code (Bytes.get corrupt pos) lxor 0x20));
      Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc corrupt);
      let survives_corruption =
        match Disk_cache.find d ~key with
        | None -> true
        | Some got ->
          (* A flip that the decoder still accepts must at least not
             change the schedule (e.g. a byte the digest round-trips). *)
          same_schedule full got
      in
      roundtrip && survives_corruption)

(* ---------------------------------------------------------------- *)
(* Pool                                                               *)

let test_pool_runs_everything () =
  with_watchdog @@ fun () ->
  let pool = Pool.create ~queue_depth:4 ~jobs:4 () in
  let counter = Atomic.make 0 in
  for _ = 1 to 100 do
    Pool.submit pool (fun () -> Atomic.incr counter)
  done;
  Pool.quiesce pool;
  check_int "all jobs ran" 100 (Atomic.get counter);
  check_int "executed gauge" 100 (Pool.executed pool);
  check_bool "bounded queue respected" true (Pool.max_depth_seen pool <= 4);
  Pool.shutdown pool;
  Pool.shutdown pool;
  (* idempotent *)
  check_bool "submit after shutdown rejected" true
    (match Pool.submit pool (fun () -> ()) with
    | () -> false
    | exception Invalid_argument _ -> true)

let test_pool_parallelism () =
  with_watchdog @@ fun () ->
  (* With 4 workers, 8 sleeps of 50 ms take ~100 ms, not ~400 ms. *)
  let pool = Pool.create ~jobs:4 () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to 8 do
    Pool.submit pool (fun () -> Thread.delay 0.05)
  done;
  Pool.quiesce pool;
  let dt = Unix.gettimeofday () -. t0 in
  Pool.shutdown pool;
  check_bool (Printf.sprintf "parallel wall clock (%.0f ms)" (dt *. 1e3)) true (dt < 0.35)

let test_pool_exception_containment () =
  with_watchdog @@ fun () ->
  let pool = Pool.create ~jobs:2 () in
  let counter = Atomic.make 0 in
  for _ = 1 to 10 do
    Pool.submit pool (fun () -> failwith "job bug")
  done;
  for _ = 1 to 10 do
    Pool.submit pool (fun () -> Atomic.incr counter)
  done;
  Pool.quiesce pool;
  Pool.shutdown pool;
  check_int "workers survived raising jobs" 10 (Atomic.get counter)

(* ---------------------------------------------------------------- *)
(* Service                                                            *)

let test_service_tiers () =
  let dir = tmp_dir "mimd-svc" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let mk () = Service.create ~disk:(Disk_cache.create ~dir) () in
  let svc = mk () in
  let m = machine () in
  let compile svc =
    match Service.compile svc ~loop:prefix_loop ~machine:m ~iterations:40 () with
    | Ok o -> o.Service.result.Protocol.tier
    | Error e -> Alcotest.failf "compile failed: %s" e.Service.message
  in
  check_bool "first: computed" true (compile svc = Protocol.Computed);
  check_bool "second: memory" true (compile svc = Protocol.Memory_hit);
  (* A fresh service over the same directory: the memory tier is cold,
     the disk tier is warm, and the hit is promoted into memory. *)
  let svc2 = mk () in
  check_bool "fresh service: disk" true (compile svc2 = Protocol.Disk_hit);
  check_bool "promoted: memory" true (compile svc2 = Protocol.Memory_hit)

let test_service_errors_structured () =
  let svc = Service.create () in
  let m = machine () in
  (match Service.compile svc ~loop:"for i = 1 to n { oops" ~machine:m ~iterations:10 () with
  | Error e -> check_bool "parse kind" true (e.Service.kind = Protocol.Parse)
  | Ok _ -> Alcotest.fail "parse must fail");
  (match
     Service.compile svc
       ~deadline:(Unix.gettimeofday () -. 1.0)
       ~loop:prefix_loop ~machine:m ~iterations:10 ()
   with
  | Error e -> check_bool "deadline kind" true (e.Service.kind = Protocol.Deadline)
  | Ok _ -> Alcotest.fail "expired deadline must fail");
  let st = Json.member "errors" (Service.stats_json svc) in
  check_bool "errors counted" true (st = Some (Json.Int 2))

let test_service_validates_fresh_schedules () =
  let svc = Service.create ~validate:true () in
  match Service.compile svc ~loop:prefix_loop ~machine:(machine ()) ~iterations:25 () with
  | Ok o ->
    check_bool "validated compile is computed tier" true
      (o.Service.result.Protocol.tier = Protocol.Computed);
    (* The validate stage actually ran. *)
    let lat = Json.member "latency" (Service.stats_json svc) in
    let count =
      Option.bind lat (Json.member "validate")
      |> Fun.flip Option.bind (Json.member "count")
    in
    check_bool "validate stage recorded" true (count = Some (Json.Int 1))
  | Error e -> Alcotest.failf "validated compile failed: %s" e.Service.message

(* The stats reply's latency section is read off the stage histograms
   the service observes anyway: no per-request sample list, so a long
   run stays flat, and the summary agrees with the metrics registry. *)
let test_service_latency_from_histograms () =
  let svc = Service.create () in
  let n = 6 in
  for i = 1 to n do
    let iterations = 10 + i in
    match Service.compile svc ~loop:prefix_loop ~machine:(machine ()) ~iterations () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "compile failed: %s" e.Service.message
  done;
  let stage name =
    let latency = Json.member "latency" (Service.stats_json svc) in
    match Option.bind latency (Json.member name) with
    | Some j -> j
    | None -> Alcotest.failf "no latency.%s in stats" name
  in
  let total = stage "total" in
  check_bool "total count = compiles" true (Json.member "count" total = Some (Json.Int n));
  let h =
    Mimd_obs.Metrics.histogram ~labels:[ ("stage", "total") ] (Service.metrics svc)
      "mimd_serve_stage_latency_ms"
  in
  check_bool "p50 is the histogram's quantile" true
    (Json.member "p50_ms" total = Some (Json.Float (Mimd_obs.Metrics.quantile h 0.5)));
  check_bool "no max_ms" true (Json.member "max_ms" total = None);
  check_bool "no min-max histogram" true (Json.member "histogram" total = None);
  check_bool "empty stage is count 0" true
    (stage "validate" = Json.Obj [ ("count", Json.Int 0) ])

(* ---------------------------------------------------------------- *)
(* Channel server under contention (the --stdio shape)                *)

let read_all_lines ic =
  let rec go acc = match In_channel.input_line ic with
    | Some l -> go (l :: acc)
    | None -> List.rev acc
  in
  go []

(* Fire [writer] at a channel server and return every reply line. *)
let with_stdio_server ?(jobs = 4) ?validate ?disk writer =
  let svc = Service.create ?validate ?disk () in
  let pool = Pool.create ~jobs () in
  let server = Server.create ~service:svc ~pool () in
  let req_r, req_w = Unix.pipe () in
  let rep_r, rep_w = Unix.pipe () in
  let server_thread =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr req_r in
        let oc = Unix.out_channel_of_descr rep_w in
        Server.serve_channels server ic oc;
        (try flush oc with Sys_error _ -> ());
        Unix.close rep_w;
        Unix.close req_r)
      ()
  in
  let oc = Unix.out_channel_of_descr req_w in
  writer oc;
  flush oc;
  Unix.close req_w;
  let ic = Unix.in_channel_of_descr rep_r in
  let replies = read_all_lines ic in
  Thread.join server_thread;
  Unix.close rep_r;
  Pool.shutdown pool;
  (replies, svc)

let test_stdio_contention_bijection () =
  with_watchdog @@ fun () ->
  (* A mixed corpus: 8 distinct loops, 3 requests each (so >= 16
     repeats), plus malformed frames in the middle of the stream. *)
  let distinct = 8 and repeats = 3 in
  let requests =
    List.concat
      (List.init repeats (fun r ->
           List.init distinct (fun j ->
               Json.to_string
                 (Json.Obj
                    [
                      ("id", Json.String (Printf.sprintf "c%d-%d" j r));
                      ("op", Json.String "compile");
                      ("loop", Json.String (named_loop j));
                      ("iterations", Json.Int 30);
                    ]))))
  in
  let malformed =
    [
      "{\"op\":"; "][ garbage"; "{\"id\":\"m2\",\"op\":\"nope\"}";
      "{\"id\":\"m3\",\"op\":\"retune\",\"k\":5}";
    ]
  in
  let replies, svc =
    with_stdio_server ~jobs:4 (fun oc ->
        List.iteri
          (fun i line ->
            output_string oc (line ^ "\n");
            (* Interleave garbage mid-stream. *)
            if i = 5 then List.iter (fun m -> output_string oc (m ^ "\n")) malformed)
          requests)
  in
  check_int "reply per request (bijection)"
    (List.length requests + List.length malformed)
    (List.length replies);
  let ok_ids, error_count =
    List.fold_left
      (fun (ids, errs) line ->
        let j = Json.parse line in
        match Json.member "ok" j with
        | Some (Json.Bool true) -> (
          match Json.member "id" j with
          | Some (Json.String s) -> (s :: ids, errs)
          | _ -> Alcotest.fail "ok reply without string id")
        | _ -> (ids, errs + 1))
      ([], 0) replies
  in
  check_int "every malformed frame got a structured error" (List.length malformed)
    error_count;
  let expected_ids =
    List.concat
      (List.init repeats (fun r ->
           List.init distinct (fun j -> Printf.sprintf "c%d-%d" j r)))
  in
  check_bool "reply ids = request ids" true
    (List.sort compare ok_ids = List.sort compare expected_ids);
  (* Under contention racing misses may compute a key twice, but hits
     can never exceed total repeats nor fall below... nothing — so
     only assert the sane global bound here; the deterministic
     hit-count test below uses one worker. *)
  let st = Service.memory_stats svc in
  check_bool "hits + misses = compiles" true
    (st.Schedule_cache.hits + st.Schedule_cache.misses = distinct * repeats)

let test_stdio_sequential_hit_counts () =
  with_watchdog @@ fun () ->
  (* One worker: strict FIFO, so every repeat after the first request
     of a loop must hit — hits >= repeats exactly. *)
  let distinct = 5 and repeats = 4 in
  let replies, svc =
    with_stdio_server ~jobs:1 (fun oc ->
        for r = 0 to repeats - 1 do
          for j = 0 to distinct - 1 do
            output_string oc
              (Json.to_string
                 (Json.Obj
                    [
                      ("id", Json.String (Printf.sprintf "s%d-%d" j r));
                      ("op", Json.String "compile");
                      ("loop", Json.String (named_loop j));
                      ("iterations", Json.Int 20);
                    ])
              ^ "\n")
          done
        done)
  in
  check_int "all replied" (distinct * repeats) (List.length replies);
  List.iter
    (fun line ->
      check_bool "reply ok" true
        (Json.member "ok" (Json.parse line) = Some (Json.Bool true)))
    replies;
  let st = Service.memory_stats svc in
  check_int "misses = distinct loops" distinct st.Schedule_cache.misses;
  check_int "hits = repeats" (distinct * (repeats - 1)) st.Schedule_cache.hits

let test_stdio_stats_and_shutdown () =
  with_watchdog @@ fun () ->
  let replies, _svc =
    with_stdio_server ~jobs:1 (fun oc ->
        output_string oc
          (Printf.sprintf {|{"id":1,"op":"compile","loop":%s,"iterations":16}|}
             (Json.to_string (Json.String prefix_loop))
          ^ "\n");
        output_string oc {|{"id":2,"op":"ping"}|};
        output_string oc "\n";
        output_string oc {|{"id":3,"op":"stats"}|};
        output_string oc "\n";
        output_string oc {|{"id":4,"op":"shutdown"}|};
        output_string oc "\n";
        (* Past the shutdown frame: must not be read or answered. *)
        output_string oc {|{"id":5,"op":"ping"}|};
        output_string oc "\n")
  in
  check_int "shutdown stops the stream" 4 (List.length replies);
  let by_id n =
    List.find_map
      (fun l ->
        let j = Json.parse l in
        if Json.member "id" j = Some (Json.Int n) then Some j else None)
      replies
  in
  check_bool "pong" true
    (Option.bind (by_id 2) (Json.member "pong") = Some (Json.Bool true));
  check_bool "bye" true
    (Option.bind (by_id 4) (Json.member "bye") = Some (Json.Bool true));
  let stats = Option.bind (by_id 3) (Json.member "stats") in
  let pool_stats = Option.bind stats (Json.member "pool") in
  check_bool "stats carries pool gauges" true
    (Option.bind pool_stats (Json.member "jobs") = Some (Json.Int 1))

(* ---------------------------------------------------------------- *)
(* Socket server under contention                                     *)

let test_socket_concurrent_clients () =
  with_watchdog ~seconds:90.0 @@ fun () ->
  let svc = Service.create () in
  let pool = Pool.create ~jobs:3 () in
  let server = Server.create ~service:svc ~pool () in
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "mimd-%d-%d.sock" (Unix.getpid ()) (Random.bits () land 0xffff))
  in
  let server_thread = Thread.create (fun () -> ignore (Server.serve_socket server ~path)) () in
  (* Wait for the socket to exist before connecting. *)
  let rec await n =
    if Sys.file_exists path then ()
    else if n = 0 then Alcotest.fail "server socket never appeared"
    else begin
      Thread.delay 0.02;
      await (n - 1)
    end
  in
  await 250;
  let clients = 6 and per_client = 5 in
  let failures = Atomic.make 0 in
  let client c () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    let oc = Unix.out_channel_of_descr fd in
    let ic = Unix.in_channel_of_descr fd in
    let ids = List.init per_client (fun r -> Printf.sprintf "k%d-%d" c r) in
    List.iteri
      (fun r id ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [
                  ("id", Json.String id);
                  ("op", Json.String "compile");
                  (* Every client hammers the same few loops: lots of
                     cross-client cache contention. *)
                  ("loop", Json.String (named_loop (r mod 3)));
                  ("iterations", Json.Int 24);
                ])
          ^ "\n"))
      ids;
    flush oc;
    let got = List.init per_client (fun _ -> In_channel.input_line ic) in
    let got_ids =
      List.filter_map
        (fun l ->
          Option.bind l (fun l ->
              match Json.parse l with
              | j when Json.member "ok" j = Some (Json.Bool true) ->
                Json.to_string_opt (Option.value ~default:Json.Null (Json.member "id" j))
              | _ -> None))
        got
    in
    if List.sort compare got_ids <> List.sort compare ids then Atomic.incr failures;
    Unix.close fd
  in
  let threads = List.init clients (fun c -> Thread.create (client c) ()) in
  List.iter Thread.join threads;
  (* One more client shuts the server down. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  let oc = Unix.out_channel_of_descr fd in
  output_string oc "{\"id\":\"bye\",\"op\":\"shutdown\"}\n";
  flush oc;
  let bye = In_channel.input_line (Unix.in_channel_of_descr fd) in
  check_bool "bye received" true
    (match bye with
    | Some l -> Json.member "bye" (Json.parse l) = Some (Json.Bool true)
    | None -> false);
  Unix.close fd;
  Thread.join server_thread;
  Pool.shutdown pool;
  check_int "every client saw its own replies" 0 (Atomic.get failures);
  check_bool "socket file removed on shutdown" true (not (Sys.file_exists path));
  (* 6 clients x 5 requests over 3 distinct loops: at least the
     repeats beyond the first computation of each loop are hits or
     racing recomputes; the request total must reconcile. *)
  let st = Service.memory_stats svc in
  check_int "requests reconcile" (clients * per_client)
    (st.Schedule_cache.hits + st.Schedule_cache.misses);
  check_bool "cross-client cache hits happened" true (st.Schedule_cache.hits >= clients * per_client - 2 * 3 * per_client)

(* ---------------------------------------------------------------- *)
(* Batch over a corpus directory                                      *)

let write_file path content =
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc content)

let test_batch_library () =
  with_watchdog @@ fun () ->
  let dir = tmp_dir "mimd-corpus" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Unix.mkdir (Filename.concat dir "sub") 0o755;
  write_file (Filename.concat dir "a.loop") "for i = 1 to n { A[i] = A[i-1] + B[i]; }\n";
  write_file (Filename.concat dir "sub/b.loop") (named_loop 1 ^ "\n");
  write_file (Filename.concat dir "ignored.txt") "not a loop\n";
  (match Server.collect_corpus [ dir ] with
  | Ok files -> check_int "recursive *.loop collection" 2 (List.length files)
  | Error e -> Alcotest.fail e);
  check_bool "missing path is an error" true
    (match Server.collect_corpus [ Filename.concat dir "nope" ] with
    | Error _ -> true
    | Ok _ -> false);
  let run ?(extra = []) () =
    let svc = Service.create () in
    let pool = Pool.create ~jobs:2 () in
    let server = Server.create ~service:svc ~pool () in
    let code =
      Server.batch server ~machine:(machine ()) ~iterations:20 ~paths:(dir :: extra) ()
    in
    Pool.shutdown pool;
    code
  in
  check_int "clean corpus exits 0" 0 (run ());
  let bad = Filename.concat dir "broken.loop" in
  write_file bad "for i = 1 to n { zzz\n";
  check_int "any failing file makes batch exit non-zero" 1 (run ())

let suite =
  [
    Alcotest.test_case "server: json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "server: json rejects malformed" `Quick test_json_errors;
    Alcotest.test_case "server: protocol compile defaults" `Quick
      test_protocol_compile_defaults;
    Alcotest.test_case "server: protocol rejects bad frames" `Quick test_protocol_rejects;
    Alcotest.test_case "server: protocol error reply shape" `Quick
      test_protocol_reply_shape;
    Alcotest.test_case "server: schedule cache LRU promotion" `Quick
      test_cache_lru_promotion;
    Alcotest.test_case "server: schedule cache eviction counter" `Quick
      test_cache_eviction_counter;
    Alcotest.test_case "server: disk cache roundtrip + corruption" `Quick
      test_disk_roundtrip_and_corruption;
    Alcotest.test_case "server: disk cache concurrent writers" `Quick
      test_disk_concurrent_writers;
    prop_disk_roundtrip;
    Alcotest.test_case "server: pool runs everything" `Quick test_pool_runs_everything;
    Alcotest.test_case "server: pool wall-clock parallelism" `Quick test_pool_parallelism;
    Alcotest.test_case "server: pool contains job exceptions" `Quick
      test_pool_exception_containment;
    Alcotest.test_case "server: service cache tiers" `Quick test_service_tiers;
    Alcotest.test_case "server: service structured errors" `Quick
      test_service_errors_structured;
    Alcotest.test_case "server: service validates fresh schedules" `Quick
      test_service_validates_fresh_schedules;
    Alcotest.test_case "server: service latency from histograms" `Quick
      test_service_latency_from_histograms;
    Alcotest.test_case "server: stdio contention bijection" `Quick
      test_stdio_contention_bijection;
    Alcotest.test_case "server: stdio sequential hit counts" `Quick
      test_stdio_sequential_hit_counts;
    Alcotest.test_case "server: stdio stats, ping, shutdown" `Quick
      test_stdio_stats_and_shutdown;
    Alcotest.test_case "server: socket concurrent clients" `Quick
      test_socket_concurrent_clients;
    Alcotest.test_case "server: batch corpus" `Quick test_batch_library;
  ]
