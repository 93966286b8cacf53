(* Shared test helpers: graph builders, generators, common checks. *)

module Graph = Mimd_ddg.Graph
module Config = Mimd_machine.Config
module Schedule = Mimd_core.Schedule

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* A mesh's rings are a memfd's mapping, shown in a maps file as
   /memfd:mimd-rings.  [pid] is a process id or "self". *)
let ring_mappings pid =
  let name = "/memfd:mimd-rings" in
  let len = String.length name in
  In_channel.with_open_text (Printf.sprintf "/proc/%s/maps" pid) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l ->
         let n = String.length l in
         let rec at i = i + len <= n && (String.sub l i len = name || at (i + 1)) in
         at 0)
  |> List.length

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

let graph_of ~latencies ~edges = Graph.of_arrays ~latencies ~edges ()

(* The Figure 7 loop, used all over. *)
let fig7 () = Mimd_workloads.Fig7.graph ()

let machine ?(p = 2) ?(k = 2) () = Config.make ~processors:p ~comm_estimate:k

(* ewf compiled the way the exec benchmark compiles it: the full
   pipeline at p=2, k=2, n=1000 under the default (weighted) cost
   model.  Its value fold is the largest table any test builds. *)
let ewf_benchmark_shape () =
  let iterations = 1000 in
  let flat = Mimd_loop_ir.Parser.parse Mimd_workloads.Elliptic.source in
  let graph = (Mimd_loop_ir.Depend.analyze flat).Mimd_loop_ir.Depend.graph in
  let full = Mimd_core.Full_sched.run ~graph ~machine:(machine ~p:2 ~k:2 ()) ~iterations () in
  (flat, Mimd_codegen.From_schedule.run full.Mimd_core.Full_sched.schedule, iterations)

(* Two loop-invariant cells (reductions into S[0] and T[0]), one read
   by the other statements in the same iteration, plus a carried read
   of Y: every operand source comes from the fixed-cell rule. *)
let fixed_cell_source =
  "for i = 1 to n { S[0] = S[0] + X[i]; Y[i] = S[0] * 2; T[0] = T[0] * Y[i-1] + S[0]; }"

(* A single self-recurrence: the smallest Cyclic graph. *)
let self_loop ?(latency = 1) () =
  graph_of ~latencies:[| latency |] ~edges:[ (0, 0, 1) ]

(* Two-node cycle A -> B -> (next) A. *)
let two_cycle () = graph_of ~latencies:[| 1; 1 |] ~edges:[ (0, 1, 0); (1, 0, 1) ]

let assert_valid ?closed sched =
  match Schedule.validate ?closed sched with
  | Ok () -> ()
  | Error e -> Alcotest.failf "schedule invalid: %s" e

(* QCheck generator: a random connected loop whose distance-0 subgraph
   is acyclic and in which every node has a predecessor (a backbone
   cycle through all nodes guarantees both solve preconditions). *)
let gen_cyclic_graph =
  QCheck2.Gen.(
    let* n = int_range 2 10 in
    let* latencies = array_size (return n) (int_range 1 3) in
    let* extra_sd =
      list_size (int_range 0 (2 * n))
        (let* a = int_range 0 (n - 2) in
         let* b = int_range (a + 1) (n - 1) in
         return (a, b, 0))
    in
    let* extra_lcd =
      list_size (int_range 0 n)
        (let* a = int_range 0 (n - 1) in
         let* b = int_range 0 (n - 1) in
         return (a, b, 1))
    in
    let backbone = List.init (n - 1) (fun i -> (i, i + 1, 0)) @ [ (n - 1, 0, 1) ] in
    return (latencies, backbone @ extra_sd @ extra_lcd))

let build_cyclic (latencies, edges) = graph_of ~latencies ~edges

let print_graph_spec (latencies, edges) =
  Printf.sprintf "lat=[%s] edges=[%s]"
    (String.concat ";" (Array.to_list (Array.map string_of_int latencies)))
    (String.concat ";" (List.map (fun (a, b, d) -> Printf.sprintf "(%d,%d,%d)" a b d) edges))

(* Arbitrary (possibly disconnected, any-distance) graph for the
   classification and graph-algorithm properties. *)
let gen_any_graph =
  QCheck2.Gen.(
    let* n = int_range 1 12 in
    let* latencies = array_size (return n) (int_range 1 3) in
    let* edges =
      list_size (int_range 0 (3 * n))
        (let* a = int_range 0 (n - 1) in
         let* b = int_range 0 (n - 1) in
         let* d = int_range 0 2 in
         (* Keep the distance-0 subgraph acyclic: force d >= 1 on
            non-forward edges. *)
         if a < b then return (a, b, d) else return (a, b, max 1 d))
    in
    return (latencies, edges))

(* One seed for every property test in the run: QCHECK_SEED pins it
   (reproduction), otherwise it is drawn fresh.  Announced on stderr
   when a property fails, so the failure line itself says how to
   replay it — alcotest captures stdout, and the library's own
   seed banner is printed whether or not anything failed. *)
let qcheck_seed =
  lazy
    (match Option.bind (Sys.getenv_opt "QCHECK_SEED") int_of_string_opt with
    | Some seed -> seed
    | None ->
      Random.self_init ();
      Random.int 1_000_000_000)

let qtest ?(count = 100) name gen print prop =
  let seed = Lazy.force qcheck_seed in
  let announced = ref false in
  let announce () =
    if not !announced then begin
      announced := true;
      Printf.eprintf "\n[qcheck] %S failed; reproduce with QCHECK_SEED=%d\n%!" name seed
    end
  in
  let prop x =
    match prop x with
    | true -> true
    | false ->
      announce ();
      false
    | exception e ->
      announce ();
      raise e
  in
  QCheck_alcotest.to_alcotest
    ~rand:(Random.State.make [| seed |])
    (QCheck2.Test.make ~name ~count ~print gen prop)

(* Tracing is a process-global switch: every test that turns it on
   leaves it off and the buffers empty, so suite order cannot matter. *)
let with_tracing f =
  Mimd_obs.Trace.clear ();
  Mimd_obs.Trace.enable ();
  Fun.protect
    ~finally:(fun () ->
      Mimd_obs.Trace.disable ();
      Mimd_obs.Trace.clear ())
    f

(* The capture so far, parsed back with the server's own JSON reader. *)
let export_events () =
  let module Json = Mimd_server.Json in
  match Json.parse (Mimd_obs.Trace.export ()) with
  | Json.Obj _ as doc -> begin
    match Json.member "traceEvents" doc with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "export has no traceEvents list"
  end
  | _ -> Alcotest.fail "export is not a JSON object"

(* Complete (ph "X") events: one per finished span. *)
let completes evs =
  List.filter (fun ev -> Mimd_server.Json.(member "ph" ev = Some (String "X"))) evs
