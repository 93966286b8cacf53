(* Workloads [exec-mesh] and [exec-sockets]: run already compiled and
   lowered programs.  Set-up compiles and lowers ewf, fig7,
   state-space2 and examples/loops/horner.loop at p=2, k=2, n=1000;
   each op is one execution of one of them, on the domain mesh
   ([Exec_compiled.run]) or on forked processes over Unix socketpairs
   ([Runner.run]).  Every op's values are compared bit for bit with the
   sequential interpreter outside the timed call. *)

open Common
module Full_sched = Mimd_core.Full_sched
module Value_run = Mimd_runtime.Value_run

let processors = 2
let k = 2
let iterations = 1000

type prog = {
  name : string;
  flat : Mimd_loop_ir.Ast.loop;
  program : Mimd_codegen.Program.t;
  lowered : Mimd_runtime.Lower.t;
  sp_pct : float;
  sim_cycles : int;  (** simulated makespan at the assumed k *)
}

let sources () =
  let ss2 = Mimd_workloads.Kernels_src.state_space2 () in
  [
    ("ewf", Mimd_workloads.Elliptic.source, Mimd_loop_ir.Cost.weighted);
    ("fig7", Mimd_workloads.Fig7.source, Mimd_loop_ir.Cost.weighted);
    ( ss2.name,
      ss2.source,
      if ss2.uniform_cost then Mimd_loop_ir.Cost.uniform else Mimd_loop_ir.Cost.weighted );
    ( "horner.loop",
      In_channel.with_open_text
        (Filename.concat (Filename.concat "examples" "loops") "horner.loop")
        In_channel.input_all,
      Mimd_loop_ir.Cost.weighted );
  ]

let compile (name, source, cost) =
  let ast = Mimd_loop_ir.Parser.parse source in
  let flat =
    if Mimd_loop_ir.Ast.is_flat ast then ast else Mimd_loop_ir.If_convert.run ast
  in
  let graph = (Mimd_loop_ir.Depend.analyze ~cost flat).Mimd_loop_ir.Depend.graph in
  let machine = Mimd_machine.Config.make ~processors ~comm_estimate:k in
  let full = Full_sched.run ~graph ~machine ~iterations () in
  let program = Mimd_codegen.From_schedule.run ~validate:true full.Full_sched.schedule in
  let lowered = Mimd_runtime.Lower.run ~loop:flat ~program () in
  {
    name;
    flat;
    program;
    lowered;
    sp_pct =
      Mimd_core.Metrics.percentage_parallelism
        ~sequential:(Mimd_core.Metrics.sequential_time graph ~iterations)
        ~parallel:(Full_sched.parallel_time full);
    sim_cycles =
      (Mimd_sim.Exec.run ~program ~links:(Mimd_sim.Links.fixed k) ()).Mimd_sim.Exec.makespan;
  }

let setup () = List.map compile (sources ())

(* Each deck runs every program [weight] times, in a seeded order.  The
   weights keep p50 and p90 inside one program's cluster of latencies
   rather than on the boundary between two. *)
let weights = [ ("ewf", 2); ("fig7", 2); ("state-space2", 2); ("horner.loop", 4) ]

let deck progs rng =
  let ops =
    List.concat_map
      (fun p -> List.init (try List.assoc p.name weights with Not_found -> 1) (fun _ -> p))
      progs
    |> Array.of_list
  in
  Mimd_util.Prng.shuffle rng ops;
  ops

type transport = Mesh | Sockets

(* A socket run that fails for an environmental reason (a child that
   died or stalled, a link that went down) is retried once by
   [Runner.run ~respawn:1]; the retry is counted here and the op still
   fails, so a crash never passes for a slow success. *)
let respawns () =
  Mimd_obs.Metrics.counter_value
    (Mimd_obs.Metrics.counter Mimd_obs.Metrics.default "mimd_dist_respawns_total")

let execute transport p =
  match transport with
  | Mesh ->
    layer "runtime.call" (fun () ->
        Mimd_runtime.Exec_compiled.run ~lowered:p.lowered ~loop:p.flat ~program:p.program ())
  | Sockets ->
    layer "dist.call" (fun () ->
        Mimd_dist.Runner.run ~respawn:1 ~exec:(`Compiled_form p.lowered) ~loop:p.flat
          ~program:p.program ())

(* What an op leaves behind: scalars only, so the benchmark's own
   memory stays flat however many ops a run makes. *)
type sample = {
  prog : prog;
  call_ms : float;
  makespan_ns : float;  (** the outcome's own makespan *)
  messages : int;  (** frames actually sent *)
  skew : float;  (** max / min domain wall *)
}

let skew (o : Value_run.outcome) =
  let w = o.domain_wall_ns in
  let lo = Array.fold_left min infinity w and hi = Array.fold_left max 0.0 w in
  if lo > 0.0 then hi /. lo else 1.0

let check p outcome =
  layer "loop_ir.interp" (fun () ->
      Value_run.check_against_sequential ~loop:p.flat ~iterations outcome)

(* One op: the timed call, then the untimed bit-for-bit check. *)
let attempt transport id p =
  Span.set_op id;
  let respawns0 = respawns () in
  let t0 = now_ns () in
  match Span.span "op" (fun () -> execute transport p) with
  | exception e -> Error (Printf.sprintf "%s: %s" p.name (Printexc.to_string e))
  | _ when respawns () > respawns0 ->
    Error (Printf.sprintf "%s: socket run respawned after a child failure" p.name)
  | outcome -> (
    let call_ms = ms_of_ns (now_ns () - t0) in
    match check p outcome with
    | Ok () ->
      Ok
        {
          prog = p;
          call_ms;
          makespan_ns = outcome.makespan_ns;
          messages = outcome.messages;
          skew = skew outcome;
        }
    | Error e -> Error (Printf.sprintf "%s: values differ from Interp: %s" p.name e))

(* Blocks of [decks_per_block] whole decks until [seconds] have
   passed; each sample is keyed by its slot in the deck (program and
   occurrence). *)
let decks_per_block = 5

let loop transport progs ~rng ~seconds ~first_op ~blocks =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let samples = ref [] and failures = ref [] and id = ref first_op in
  while now_ns () < deadline do
    let t0 = now_ns () and block = ref [] in
    for _ = 1 to decks_per_block do
      let seen = Hashtbl.create 8 in
      Array.iter
        (fun p ->
          let j = Option.value ~default:0 (Hashtbl.find_opt seen p.name) in
          Hashtbl.replace seen p.name (j + 1);
          (match attempt transport !id p with
          | Ok s ->
            samples := (Printf.sprintf "%s#%d" p.name j, s) :: !samples;
            block := s.call_ms :: !block
          | Error e -> failures := e :: !failures);
          incr id)
        (deck progs rng)
    done;
    blocks := block_since t0 !block :: !blocks
  done;
  (List.rev !samples, List.rev !failures)

(* Quality: the paper's Sp of each schedule, the frames one execution
   of each actually sends, and the generated instructions. *)
let quality transport progs =
  let sent =
    List.fold_left
      (fun acc p ->
        match attempt transport (-1) p with
        | Ok s -> acc + s.messages
        | Error e -> failwith ("quality run: " ^ e))
      0 progs
  in
  {
    sp_pct_mean = mean (List.map (fun p -> p.sp_pct) progs);
    messages_total = sent;
    code_instrs_total =
      List.fold_left (fun a p -> a + Mimd_codegen.Program.instruction_count p.program) 0 progs;
  }

(* |measured - predicted| / measured, predicted = simulated cycles x
   the calibrated cost of one cycle. *)
let model_error_pct ~cycle_ns s =
  let predicted = float_of_int s.prog.sim_cycles *. cycle_ns in
  100.0 *. Float.abs (s.makespan_ns -. predicted) /. s.makespan_ns
