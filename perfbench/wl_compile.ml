(* Workload [compile]: one thread, closed loop.  Each op compiles one
   draw through the whole default pipeline, calling every layer from
   here so each call gets its own span:

     parse -> if-convert -> Depend.analyze          loop_ir.frontend
     Full_sched.prepare                              core.prepare
     Full_sched.finish                               core.finish
     Validate.full                                   check.validate
     From_schedule.run                               codegen.from_schedule
     Comm_opt.run ~window:4 (one op in four)         codegen.comm_opt
     Sim.Exec.run at the op's k                      sim.exec
     Lower.run                                       runtime.lower *)

open Common
module Ast = Mimd_loop_ir.Ast
module Cost = Mimd_loop_ir.Cost
module Full_sched = Mimd_core.Full_sched
module Program = Mimd_codegen.Program
module Comm_opt = Mimd_codegen.Comm_opt
module Prng = Mimd_util.Prng

type entry = { name : string; source : string; cost : Cost.t }

(* The fixed part of the loop pool: the paper's loops, the textual
   kernels and every bundled example file, each source once. *)
let fixed_pool () =
  let lib =
    [
      { name = "ewf"; source = Mimd_workloads.Elliptic.source; cost = Cost.weighted };
      { name = "fig1"; source = Mimd_workloads.Fig1.source; cost = Cost.weighted };
      { name = "fig7"; source = Mimd_workloads.Fig7.source; cost = Cost.weighted };
    ]
  in
  let kernels =
    List.map
      (fun (k : Mimd_workloads.Kernels_src.t) ->
        {
          name = k.name;
          source = k.source;
          cost = (if k.uniform_cost then Cost.uniform else Cost.weighted);
        })
      (Mimd_workloads.Kernels_src.all ())
  in
  let dir = Filename.concat "examples" "loops" in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".loop")
    |> List.sort compare
    |> List.map (fun f ->
           {
             name = f;
             source = In_channel.with_open_text (Filename.concat dir f) In_channel.input_all;
             cost = Cost.weighted;
           })
  in
  List.fold_left
    (fun acc e -> if List.exists (fun x -> x.source = e.source) acc then acc else acc @ [ e ])
    [] (lib @ kernels @ files)

let random_entry seed =
  let loop = Mimd_workloads.Random_loop.generate_loop ~fanout:0.3 ~seed () in
  {
    name = Printf.sprintf "random-%d" seed;
    source = Format.asprintf "%a" Ast.pp_loop loop;
    cost = Cost.weighted;
  }

type op = { entry : entry; p : int; k : int; n : int; comm_opt : bool }

let describe op =
  Printf.sprintf "%s p=%d k=%d n=%d%s" op.entry.name op.p op.k op.n
    (if op.comm_opt then " comm-opt" else "")

let randoms_per_deck = 4

(* Deck [index]: every pool loop three times plain (once at each trip
   count) and once through Comm_opt, plus [randoms_per_deck] random
   loops seeded by the deck's index, in an order shuffled by [rng].
   p, k and the comm-opt trip count rotate with the loop's place in the
   pool.  So every run measures the same ops and the run's seed decides
   their order (and with it the heap and cache state each op meets):
   with inputs this heavy-tailed, a seed that also changed the mix would
   move the percentiles more than any change worth detecting. *)
let deck ~pool ~index rng =
  let randoms =
    List.init randoms_per_deck (fun i ->
        random_entry (7919 * ((index * randoms_per_deck) + i + 1)))
  in
  let ps = [| 2; 3; 4 |] and ks = [| 1; 2; 4 |] and comm_ns = [| 30; 60; 120 |] in
  let draw j m entry n comm_opt =
    { entry; p = ps.((j + m) mod 3); k = ks.(((2 * j) + m) mod 3); n; comm_opt }
  in
  let ops =
    List.concat
      (List.mapi
         (fun j e ->
           [
             draw j 0 e 250 false;
             draw j 1 e 1000 false;
             draw j 2 e 2000 false;
             draw j 3 e comm_ns.(j mod 3) true;
           ])
         (pool @ randoms))
    |> Array.of_list
  in
  Prng.shuffle rng ops;
  ops

(* What one op produced, for the checks and the quality metrics. *)
type outcome = {
  entries : int;
  issues : int;
  sp_pct : float;
  messages : int;
  instrs : int;
  kept_share : float option;  (** comm-opt ops: messages after / before *)
  lower_skipped : bool;
}

let run_op op =
  let flat, graph =
    layer "loop_ir.frontend" (fun () ->
        let ast = Mimd_loop_ir.Parser.parse op.entry.source in
        let flat = if Ast.is_flat ast then ast else Mimd_loop_ir.If_convert.run ast in
        (flat, (Mimd_loop_ir.Depend.analyze ~cost:op.entry.cost flat).Mimd_loop_ir.Depend.graph))
  in
  let machine = Mimd_machine.Config.make ~processors:op.p ~comm_estimate:op.k in
  let prepared = layer "core.prepare" (fun () -> Full_sched.prepare ~graph ()) in
  let full =
    layer "core.finish" (fun () -> Full_sched.finish ~prepared ~machine ~iterations:op.n ())
  in
  let report = layer "check.validate" (fun () -> Mimd_check.Validate.full full) in
  let program =
    layer "codegen.from_schedule" (fun () ->
        Mimd_codegen.From_schedule.run full.Full_sched.schedule)
  in
  let program, kept_share =
    if not op.comm_opt then (program, None)
    else begin
      let opt, st = layer "codegen.comm_opt" (fun () -> Comm_opt.run ~window:4 program) in
      ( opt,
        Some
          (if st.Comm_opt.messages_before = 0 then 1.0
           else
             float_of_int st.Comm_opt.messages_after
             /. float_of_int st.Comm_opt.messages_before) )
    end
  in
  let (_ : Mimd_sim.Exec.outcome) =
    layer "sim.exec" (fun () ->
        Mimd_sim.Exec.run ~program ~links:(Mimd_sim.Links.fixed op.k) ())
  in
  let lower_skipped =
    layer "runtime.lower" (fun () ->
        match Mimd_runtime.Lower.run ~loop:flat ~program () with
        | (_ : Mimd_runtime.Lower.t) -> false
        | exception Invalid_argument _ -> true)
  in
  {
    entries = List.length (Mimd_core.Schedule.entries full.Full_sched.schedule);
    issues = List.length report.Mimd_check.Validate.issues;
    sp_pct =
      Mimd_core.Metrics.percentage_parallelism
        ~sequential:(Mimd_core.Metrics.sequential_time graph ~iterations:op.n)
        ~parallel:(Full_sched.parallel_time full);
    messages = Comm_opt.messages program;
    instrs = Program.instruction_count program;
    kept_share;
    lower_skipped;
  }

(* An op fails when it raises (a [Deadlock] from the simulator among
   others) or when the independent validator reports any issue; a
   failure carries the number of issues found (0 when it raised). *)
type failure = { what : string; failed_issues : int }

let attempt op =
  match run_op op with
  | o when o.issues = 0 -> Ok o
  | o ->
    Error
      {
        what = Printf.sprintf "%s: %d validator issue(s)" (describe op) o.issues;
        failed_issues = o.issues;
      }
  | exception e ->
    Error { what = Printf.sprintf "%s: %s" (describe op) (Printexc.to_string e); failed_issues = 0 }

(* The quality metrics come from a fixed subset of ops, drawn with a
   seed of their own so every run and both trace modes agree. *)
let quality_seed = 20260
let quality_ops = 16

let quality ~pool =
  let ops = Array.sub (deck ~pool ~index:0 (Prng.create ~seed:quality_seed)) 0 quality_ops in
  let outs =
    Array.to_list ops
    |> List.map (fun op ->
           match attempt op with
           | Ok o -> o
           | Error f -> failwith ("quality subset: " ^ f.what))
  in
  {
    sp_pct_mean = mean (List.map (fun o -> o.sp_pct) outs);
    messages_total = List.fold_left (fun a o -> a + o.messages) 0 outs;
    code_instrs_total = List.fold_left (fun a o -> a + o.instrs) 0 outs;
  }

(* Run deck 0 [rounds] times, each time in a fresh order, each round a
   block of [blocks]; returns each op's latencies (ms) keyed by the op,
   each completed op with its id, and the failures. *)
let loop ~pool ~rng ~rounds ~first_op ~blocks =
  let lat = ref [] and outs = ref [] and failures = ref [] in
  let id = ref first_op in
  for _ = 1 to rounds do
    let t0 = now_ns () and round = ref [] in
    Array.iter
      (fun op ->
        Span.set_op !id;
        let t0 = now_ns () in
        let r = Span.span "op" (fun () -> attempt op) in
        let ms = ms_of_ns (now_ns () - t0) in
        (match r with
        | Ok o ->
          lat := (describe op, ms) :: !lat;
          round := ms :: !round;
          outs := (!id, op, o) :: !outs
        | Error e -> failures := e :: !failures);
        incr id)
      (deck ~pool ~index:0 rng);
    blocks := block_since t0 !round :: !blocks
  done;
  (List.rev !lat, List.rev !outs, List.rev !failures)

(* Comm_opt's cost against trip count, on one loop (ewf, p=2, k=2) at
   every comm-opt trip count.  Returns the op id used for each n, so a
   traced run can read the codegen.comm_opt span of each. *)
let comm_opt_growth ~first_op =
  let ewf = List.hd (fixed_pool ()) in
  List.mapi
    (fun i n ->
      Span.set_op (first_op + i);
      ignore (attempt { entry = ewf; p = 2; k = 2; n; comm_opt = true });
      (n, first_op + i))
    [ 30; 60; 120 ]

(* Set-up reads and parses the fixed pool. *)
let setup () =
  let pool = fixed_pool () in
  List.iter (fun e -> ignore (Mimd_loop_ir.Parser.parse e.source)) pool;
  pool
