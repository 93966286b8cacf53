module Graph = Mimd_ddg.Graph
module Unwind = Mimd_ddg.Unwind
module Config = Mimd_machine.Config
module Trace = Mimd_obs.Trace

type strategy = Separate | Folded | Auto

let default_strategy = Auto
let default_fold_tolerance = 0.05
let default_max_iterations = 1024

exception Invalid_schedule of string

let validator : (Schedule.t -> (unit, string) result) ref =
  ref (fun sched -> Schedule.validate sched)

type t = {
  schedule : Schedule.t;
  classification : Classify.t;
  pattern : Pattern.t option;
  cyclic_old_of_new : int array;
  cyclic_processors : int;
  flow_in_processors : int;
  flow_out_processors : int;
  startup_shift : int;
  folded : bool;
}

let subset_latency g ids = List.fold_left (fun acc v -> acc + Graph.latency g v) 0 ids

let shift_entries delta entries =
  if delta = 0 then entries
  else List.map (fun (e : Schedule.entry) -> { e with start = e.start + delta }) entries

let lookup_in g entries =
  Schedule.Index.find (Schedule.Index.of_entries ~nodes:(Graph.node_count g) entries)

(* A schedule's entries before they are frozen, with its makespan and
   the rest of its result: [freeze] builds the [t].  [Auto] compares
   drafts and freezes only the one it keeps. *)
type draft = {
  entries : Schedule.entry list;
  full_machine : Config.t;
  makespan : int;
  result : Schedule.t -> t;
}

let freeze ~graph d = d.result (Schedule.make ~graph ~machine:d.full_machine d.entries)

(* The Cyclic core's pattern, in the Cyclic subgraph's node ids, or the
   search's [No_pattern]; and the map back to the original ids. *)
let solve_core ~max_iterations ~graph:g ~machine cls =
  let cyc_g, old_of_new, _ = Classify.cyclic_subgraph g cls in
  let pattern =
    match
      Trace.span ~cat:"compile" "compile.cyclic_sched" (fun () ->
          Cyclic_sched.solve ~max_iterations ~graph:cyc_g ~machine ())
    with
    | r -> Ok r.Cyclic_sched.pattern
    | exception (Cyclic_sched.No_pattern _ as e) -> Error e
  in
  (pattern, old_of_new)

let separate_draft ~graph:g ~machine ~iterations cls ~pattern ~old_of_new =
  let cyclic_entries_local = Pattern.expand_entries pattern ~iterations in
  let cyclic_entries =
    List.map
      (fun (e : Schedule.entry) ->
        Schedule.{ e with inst = { node = old_of_new.(e.inst.node); iter = e.inst.iter } })
      cyclic_entries_local
  in
  let height = pattern.Pattern.height and iter_shift = pattern.Pattern.iter_shift in
  let p_cyc = machine.Config.processors in
  let p_in =
    Flow_sched.processors_needed
      ~subset_latency:(subset_latency g cls.Classify.flow_in)
      ~height ~iter_shift
  in
  let flow_in =
    Trace.span ~cat:"compile" "compile.flow_sched.in" (fun () ->
        Flow_sched.flow_in_entries ~graph:g ~machine ~flow_in:cls.Classify.flow_in
          ~procs:p_in ~base_proc:p_cyc ~iterations)
  in
  let flow_in_lookup = lookup_in g flow_in in
  let shift =
    Flow_sched.required_shift ~graph:g ~machine ~flow_entry:flow_in_lookup
      ~consumers:cyclic_entries
  in
  let cyclic_entries = shift_entries shift cyclic_entries in
  let p_out =
    Flow_sched.processors_needed
      ~subset_latency:(subset_latency g cls.Classify.flow_out)
      ~height ~iter_shift
  in
  let core_lookup = lookup_in g (cyclic_entries @ flow_in) in
  let flow_out =
    Trace.span ~cat:"compile" "compile.flow_sched.out" (fun () ->
        Flow_sched.flow_out_entries ~graph:g ~machine ~flow_out:cls.Classify.flow_out
          ~procs:p_out ~base_proc:(p_cyc + p_in) ~iterations ~producer:core_lookup)
  in
  let total = p_cyc + p_in + p_out in
  let entries = cyclic_entries @ flow_in @ flow_out in
  {
    entries;
    full_machine = Config.make ~processors:total ~comm_estimate:machine.Config.comm_estimate;
    makespan =
      List.fold_left
        (fun acc (e : Schedule.entry) -> max acc (e.start + Graph.latency g e.inst.node))
        0 entries;
    result =
      (fun schedule ->
        {
          schedule;
          classification = cls;
          pattern = Some pattern;
          cyclic_old_of_new = old_of_new;
          cyclic_processors = p_cyc;
          flow_in_processors = p_in;
          flow_out_processors = p_out;
          startup_shift = shift;
          folded = false;
        });
  }

let folded_draft ~graph:g ~machine ~iterations cls ~pattern ~old_of_new =
  let entries, makespan = Cyclic_sched.greedy_entries ~graph:g ~machine ~iterations () in
  {
    entries;
    full_machine = machine;
    makespan;
    result =
      (fun schedule ->
        {
          schedule;
          classification = cls;
          pattern;
          cyclic_old_of_new = old_of_new;
          cyclic_processors = machine.Config.processors;
          flow_in_processors = 0;
          flow_out_processors = 0;
          startup_shift = 0;
          folded = true;
        });
  }

(* [Auto]: keep the fold when its makespan [mf] is within
   [fold_tolerance] of the Separate makespan [ms].  By Theorem 1 the
   Separate schedule holds the pattern's expansion shifted by
   [startup_shift >= 0], so [Pattern.makespan] is a lower bound [lb] on
   [ms], priced in O(pattern): when [mf <= lb (1 + tolerance)] the rule
   already picks the fold and Separate is never built.  Otherwise both
   are built and the rule compares their makespans; only the winner is
   frozen, and the loser goes through {!Schedule.check}, so it raises
   whatever freezing it would.  A Cyclic core whose weakly-connected
   components advance at different rates never settles into a joint
   pattern (the paper schedules such components independently); then
   the folded greedy, which needs no pattern, is the only candidate. *)
let run_auto ~fold_tolerance ~max_iterations ~graph:g ~machine ~iterations cls =
  let pattern, old_of_new = solve_core ~max_iterations ~graph:g ~machine cls in
  let pattern = Result.to_option pattern in
  let folded = folded_draft ~graph:g ~machine ~iterations cls ~pattern ~old_of_new in
  let mf = folded.makespan in
  let keeps_fold ms = float_of_int mf <= float_of_int ms *. (1.0 +. fold_tolerance) in
  let note ~keep ~lb ~ms =
    if Trace.is_enabled () then
      Trace.instant "compile.auto"
        ~args:
          [
            ("folded", string_of_bool keep);
            ("separate_built", string_of_bool (ms >= 0));
            ("lb", string_of_int lb);
            ("mf", string_of_int mf);
            ("ms", string_of_int ms);
          ]
  in
  match pattern with
  | None ->
    note ~keep:true ~lb:(-1) ~ms:(-1);
    freeze ~graph:g folded
  | Some pattern ->
    let lb = Pattern.makespan pattern ~iterations in
    if keeps_fold lb then begin
      note ~keep:true ~lb ~ms:(-1);
      freeze ~graph:g folded
    end
    else begin
      let separate = separate_draft ~graph:g ~machine ~iterations cls ~pattern ~old_of_new in
      let keep = keeps_fold separate.makespan in
      note ~keep ~lb ~ms:separate.makespan;
      let winner, loser = if keep then (folded, separate) else (separate, folded) in
      Schedule.check ~graph:g ~machine:loser.full_machine loser.entries;
      freeze ~graph:g winner
    end

let run_doall ~graph:g ~machine ~iterations cls =
  let schedule = Cyclic_sched.schedule_iterations ~graph:g ~machine ~iterations () in
  {
    schedule;
    classification = cls;
    pattern = None;
    cyclic_old_of_new = [||];
    cyclic_processors = machine.Config.processors;
    flow_in_processors = 0;
    flow_out_processors = 0;
    startup_shift = 0;
    folded = false;
  }

(* The machine-independent prefix of the pipeline: unwinding to
   distances in {0,1} and the Flow-in/Cyclic/Flow-out classification
   depend only on the graph, never on [machine] or [iterations] — so a
   k-only recompile can reuse them.  [prepare] is that
   prefix, [finish] the rest; [run] is their composition and behaves
   exactly as it always has. *)
type prepared = {
  unwound : Graph.t;
  copies : int;
  cls : Classify.t;
}

let prepare ~graph () =
  let mapping = Trace.span ~cat:"compile" "compile.unwind" (fun () -> Unwind.normalize graph) in
  let g = mapping.Unwind.graph in
  let cls = Trace.span ~cat:"compile" "compile.classify" (fun () -> Classify.run g) in
  { unwound = g; copies = mapping.Unwind.copies; cls }

let finish ?(strategy = default_strategy) ?(fold_tolerance = default_fold_tolerance)
    ?(max_iterations = default_max_iterations) ?(validate = false) ~prepared ~machine
    ~iterations () =
  if iterations <= 0 then invalid_arg "Full_sched.run: iterations <= 0";
  if fold_tolerance < 0.0 then invalid_arg "Full_sched.run: negative fold_tolerance";
  let g = prepared.unwound in
  let copies = prepared.copies in
  let iterations = (iterations + copies - 1) / copies in
  let cls = prepared.cls in
  let t =
    if Classify.is_doall cls then run_doall ~graph:g ~machine ~iterations cls
    else begin
      match strategy with
      | Separate ->
        let pattern, old_of_new = solve_core ~max_iterations ~graph:g ~machine cls in
        let pattern = match pattern with Ok p -> p | Error e -> raise e in
        freeze ~graph:g (separate_draft ~graph:g ~machine ~iterations cls ~pattern ~old_of_new)
      | Folded ->
        let pattern, old_of_new = solve_core ~max_iterations ~graph:g ~machine cls in
        let pattern = Result.to_option pattern in
        freeze ~graph:g (folded_draft ~graph:g ~machine ~iterations cls ~pattern ~old_of_new)
      | Auto -> run_auto ~fold_tolerance ~max_iterations ~graph:g ~machine ~iterations cls
    end
  in
  if validate then begin
    match Trace.span ~cat:"compile" "compile.validate" (fun () -> !validator t.schedule) with
    | Ok () -> ()
    | Error msg -> raise (Invalid_schedule msg)
  end;
  t

let run ?strategy ?fold_tolerance ?max_iterations ?validate ~graph ~machine ~iterations () =
  finish ?strategy ?fold_tolerance ?max_iterations ?validate ~prepared:(prepare ~graph ())
    ~machine ~iterations ()

let parallel_time t = Schedule.makespan t.schedule

(* Canonical digest of the observable result: FNV-1a over the sorted
   entry stream plus the processor split and pattern shape.  Two runs
   that schedule every instance identically produce the same hex
   string, whatever order the scheduler emitted the entries in — the
   determinism tests and CI diff this against checked-in goldens. *)
let output_fingerprint t =
  Mimd_util.Fnv.digest @@ fun mix ->
  mix (Schedule.machine t.schedule).Config.processors;
  mix t.cyclic_processors;
  mix t.flow_in_processors;
  mix t.flow_out_processors;
  mix t.startup_shift;
  mix (if t.folded then 1 else 0);
  (match t.pattern with
  | None -> mix 0
  | Some p ->
    mix 1;
    mix p.Pattern.height;
    mix p.Pattern.iter_shift);
  List.iter
    (fun (e : Schedule.entry) ->
      mix e.start;
      mix e.proc;
      mix e.inst.iter;
      mix e.inst.node)
    (Schedule.entries t.schedule)

let total_processors t =
  t.cyclic_processors + t.flow_in_processors + t.flow_out_processors

let report t =
  let buf = Buffer.create 256 in
  let cls = t.classification in
  Buffer.add_string buf
    (Printf.sprintf "classification: %d flow-in, %d cyclic, %d flow-out\n"
       (List.length cls.Classify.flow_in)
       (List.length cls.Classify.cyclic)
       (List.length cls.Classify.flow_out));
  (match t.pattern with
  | Some p ->
    Buffer.add_string buf
      (Printf.sprintf "pattern: height %d, %d iteration(s)/repetition -> %.2f cycles/iter\n"
         p.Pattern.height p.Pattern.iter_shift (Pattern.rate p))
  | None -> Buffer.add_string buf "pattern: none (DOALL loop or folded-only run)\n");
  Buffer.add_string buf
    (Printf.sprintf "processors: %d cyclic + %d flow-in + %d flow-out%s\n" t.cyclic_processors
       t.flow_in_processors t.flow_out_processors
       (if t.folded then " (non-cyclic folded into cyclic)" else ""));
  Buffer.add_string buf
    (Printf.sprintf "startup shift: %d cycle(s); makespan: %d cycle(s) for %d iteration(s)\n"
       t.startup_shift (parallel_time t) (Schedule.iterations t.schedule));
  Buffer.contents buf
