module Graph = Mimd_ddg.Graph
module Config = Mimd_machine.Config
module Schedule = Mimd_core.Schedule
module Pattern = Mimd_core.Pattern
module Full_sched = Mimd_core.Full_sched
module Program = Mimd_codegen.Program

type issue =
  | Overlap of { proc : int; cycle : int; a : Schedule.instance; b : Schedule.instance }
  | Dependence of {
      edge : Graph.edge;
      pred : Schedule.entry;
      succ : Schedule.entry;
      comm : int;
      earliest : int;
    }
  | Missing of Schedule.instance
  | Pattern_shape of string
  | Reroll of { iterations : int; issue : issue }
  | Protocol_defect of Program.defect
  | Protocol_deadlock of { capacity : int; delivered : int; stuck : (int * string) list }
  | Protocol_failure of Program.failure

type report = { issues : issue list; counters : (string * int) list }

let ok r = r.issues = []

let merge rs =
  {
    issues = List.concat_map (fun r -> r.issues) rs;
    counters = List.concat_map (fun r -> r.counters) rs;
  }

(* ------------------------------------------------------------------ *)
(* (a) + (b): the schedule itself                                      *)

let schedule ?(complete = true) sched =
  let g = Schedule.graph sched in
  let m = Schedule.machine sched in
  let entries = Schedule.entries sched in
  let issues = ref [] in
  (* (b) exclusivity and latency occupancy, cell by cell: an instance
     of latency L claims exactly the L cells [start, start + L) of its
     processor's timeline, and no cell may be claimed twice.  This is
     deliberately not the scheduler's sorted-interval scan.  Each
     processor's timeline is one int array over its busy range [first
     start, last finish), each cell holding the index (in [entries]) of
     the instance that claimed it first, or -1. *)
  let entries_a = Array.of_list entries in
  let p = m.Config.processors in
  let lo = Array.make p max_int and hi = Array.make p 0 in
  Array.iter
    (fun (e : Schedule.entry) ->
      lo.(e.proc) <- min lo.(e.proc) e.start;
      hi.(e.proc) <- max hi.(e.proc) (e.start + Graph.latency g e.inst.node))
    entries_a;
  let occ = Array.init p (fun q -> Array.make (max 0 (hi.(q) - lo.(q))) (-1)) in
  let cells = ref 0 in
  Array.iteri
    (fun i (e : Schedule.entry) ->
      let owners = occ.(e.proc) and base = lo.(e.proc) in
      (* [entries] ascend by start, so the owners of this instance's
         cells form runs that never recur: one overlap per owner is
         reported by remembering only the last. *)
      let reported = ref (-1) in
      for c = e.start to e.start + Graph.latency g e.inst.node - 1 do
        incr cells;
        let other = owners.(c - base) in
        if other < 0 then owners.(c - base) <- i
        else if other <> !reported then begin
          reported := other;
          issues :=
            Overlap { proc = e.proc; cycle = c; a = entries_a.(other).inst; b = e.inst }
            :: !issues
        end
      done)
    entries_a;
  (* completeness: a schedule that claims [iterations] trips must hold
     every node of every one of them (Full_sched / Pattern.expand
     contract); pattern slices check with [complete = false]. *)
  let iters = Schedule.iterations sched in
  if complete then
    for v = 0 to Graph.node_count g - 1 do
      for i = 0 to iters - 1 do
        if not (Schedule.is_scheduled sched { node = v; iter = i }) then
          issues := Missing { node = v; iter = i } :: !issues
      done
    done;
  (* (a) every DDG edge honored, edge by edge over the iteration
     space: start(v, i) >= finish(u, i - d) + comm when on distinct
     processors.  Predecessors reaching before iteration 0 constrain
     nothing. *)
  let checks = ref 0 in
  List.iter
    (fun (edge : Graph.edge) ->
      for i = 0 to iters - 1 do
        match Schedule.find sched { node = edge.dst; iter = i } with
        | None -> () (* absence is [Missing] above, or allowed for slices *)
        | Some succ ->
          let pi = i - edge.distance in
          if pi >= 0 then begin
            match Schedule.find sched { node = edge.src; iter = pi } with
            | None -> () (* ditto *)
            | Some pred ->
              incr checks;
              let comm = if pred.proc = succ.proc then 0 else Config.edge_cost m edge in
              let earliest = pred.start + Graph.latency g pred.inst.node + comm in
              if succ.start < earliest then
                issues := Dependence { edge; pred; succ; comm; earliest } :: !issues
          end
      done)
    (Graph.edges g);
  {
    issues = List.rev !issues;
    counters =
      [
        ("instances", List.length entries);
        ("occupancy cells", !cells);
        ("dependence constraints", !checks);
      ];
  }

(* ------------------------------------------------------------------ *)
(* (c): pattern re-rolling                                             *)

let default_trips (p : Pattern.t) =
  let s = max 1 p.iter_shift in
  List.sort_uniq compare [ 1; 2; 3; 5; 8; (2 * s) + 1; (3 * s) + 2 ]

let pattern ?trips (p : Pattern.t) =
  let issues = ref [] in
  let shape fmt = Printf.ksprintf (fun m -> issues := Pattern_shape m :: !issues) fmt in
  if p.height < 1 then shape "height %d < 1" p.height;
  if p.iter_shift < 1 then shape "iter_shift %d < 1" p.iter_shift;
  if p.body = [] then shape "empty pattern body";
  let window_end = p.window_start + p.height in
  List.iter
    (fun (e : Schedule.entry) ->
      if e.start < p.window_start || e.start >= window_end then
        shape "body entry starts at cycle %d, outside the window [%d, %d)" e.start
          p.window_start window_end)
    p.body;
  List.iter
    (fun (e : Schedule.entry) ->
      if e.start >= p.window_start then
        shape "prologue entry starts at cycle %d, inside the window (>= %d)" e.start
          p.window_start)
    p.prologue;
  let nodes = Graph.node_count p.graph in
  if p.height >= 1 && p.iter_shift >= 1 && List.length p.body <> nodes * p.iter_shift then
    shape "body holds %d instance(s); exact repetition needs node_count (%d) x iter_shift (%d)"
      (List.length p.body) nodes p.iter_shift;
  let trips = match trips with Some t -> t | None -> default_trips p in
  let reroll =
    if !issues <> [] then [] (* a malformed pattern cannot be expanded meaningfully *)
    else
      List.concat_map
        (fun iterations ->
          match Pattern.expand p ~iterations with
          | sched ->
            List.map (fun issue -> Reroll { iterations; issue }) (schedule sched).issues
          | exception Invalid_argument m ->
            [ Reroll { iterations; issue = Pattern_shape ("expand raised: " ^ m) } ])
        trips
  in
  {
    issues = List.rev !issues @ reroll;
    counters = [ ("re-rolled trip counts", List.length trips) ];
  }

(* ------------------------------------------------------------------ *)
(* (d): the Send/Recv protocol, simulated at the runtime's capacity    *)

let program ?(capacity = Mimd_runtime.Value_run.default_channel_capacity)
    (p : Program.t) =
  let static = List.map (fun d -> Protocol_defect d) (Program.check p) in
  let delivered, dynamic =
    match Program.simulate ~capacity p with
    | Ok out -> (out.messages, [])
    | Error (Program.Stuck { delivered; blocked }) ->
      let names = Graph.name p.graph in
      let stuck =
        List.map (fun (j, instr) -> (j, Format.asprintf "%a" (Program.pp_instr ~names) instr)) blocked
      in
      (delivered, [ Protocol_deadlock { capacity; delivered; stuck } ])
    | Error f -> (0, [ Protocol_failure f ])
  in
  {
    issues = static @ dynamic;
    counters = [ ("messages delivered", delivered); ("channel capacity", capacity) ];
  }

(* ------------------------------------------------------------------ *)
(* Whole pipeline result                                               *)

let full ?trips (f : Full_sched.t) =
  merge
    [
      schedule f.schedule;
      (match f.pattern with
      | Some p -> pattern ?trips p
      | None -> { issues = []; counters = [ ("re-rolled trip counts", 0) ] });
      program (Mimd_codegen.From_schedule.run f.schedule);
    ]

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let inst_str names (i : Schedule.instance) = Printf.sprintf "%s_%d" (names i.node) i.iter

let rec pp_issue ~names ppf = function
  | Overlap { proc; cycle; a; b } ->
    Format.fprintf ppf "PE%d claims cycle %d for both %s and %s" proc cycle
      (inst_str names a) (inst_str names b)
  | Dependence { edge; pred; succ; comm; earliest } ->
    Format.fprintf ppf
      "%s@%d starts before %s allows: needs >= %d (finish %d + comm %d, edge distance %d)"
      (inst_str names succ.inst) succ.start (inst_str names pred.inst) earliest
      (earliest - comm) comm edge.distance
  | Missing inst -> Format.fprintf ppf "instance %s is not scheduled" (inst_str names inst)
  | Pattern_shape m -> Format.fprintf ppf "pattern shape: %s" m
  | Reroll { iterations; issue } ->
    Format.fprintf ppf "re-rolled for %d iteration(s): %a" iterations (pp_issue ~names) issue
  | Protocol_defect d -> Format.fprintf ppf "protocol: %a" Program.pp_defect d
  | Protocol_deadlock { capacity; delivered; stuck } ->
    Format.fprintf ppf
      "protocol: simulation deadlocks (capacity %d, %d message(s) delivered); stuck:"
      capacity delivered;
    List.iter (fun (j, s) -> Format.fprintf ppf " PE%d on [%s]" j s) stuck
  | Protocol_failure f -> Format.fprintf ppf "protocol: %a" (Program.pp_failure ~names) f

let render ~names r =
  let buf = Buffer.create 256 in
  List.iter
    (fun (label, n) -> Buffer.add_string buf (Printf.sprintf "  %-24s %8d\n" label n))
    r.counters;
  (match r.issues with
  | [] -> Buffer.add_string buf "  CLEAN: all checks passed\n"
  | issues ->
    Buffer.add_string buf (Printf.sprintf "  %d issue(s):\n" (List.length issues));
    List.iter
      (fun i -> Buffer.add_string buf (Format.asprintf "  - %a\n" (pp_issue ~names) i))
      issues);
  Buffer.contents buf

let error_of ~names r =
  match r.issues with
  | [] -> Ok ()
  | i :: rest ->
    Error
      (Format.asprintf "%a%s" (pp_issue ~names) i
         (if rest = [] then "" else Printf.sprintf " (+%d more issue(s))" (List.length rest)))

(* ------------------------------------------------------------------ *)
(* Fault injection for negative tests                                  *)

let break_dependence sched =
  let g = Schedule.graph sched in
  let csr = Graph.csr g in
  let m = Schedule.machine sched in
  let entries = Schedule.entries sched in
  let candidate =
    List.find_map
      (fun (succ : Schedule.entry) ->
        (* first match in (src, distance) order, as Graph.preds lists *)
        Graph.fold_preds csr succ.inst.node
          (fun acc (edge : Graph.edge) ->
            if acc <> None then acc
            else
              let pi = succ.inst.iter - edge.distance in
              if pi < 0 then None
              else
                match Schedule.find sched { node = edge.src; iter = pi } with
                | None -> None
                | Some pred ->
                  let comm = if pred.proc = succ.proc then 0 else Config.edge_cost m edge in
                  let earliest = pred.start + Graph.latency g pred.inst.node + comm in
                  (* hastening to earliest - 1 needs earliest >= 1, and
                     must actually move the entry *)
                  if earliest >= 1 && succ.start >= earliest then Some (succ, earliest - 1)
                  else None)
          None)
      entries
  in
  match candidate with
  | None -> None
  | Some (victim, start) ->
    let entries' =
      List.map
        (fun (e : Schedule.entry) -> if e.inst = victim.inst then { e with start } else e)
        entries
    in
    Some (Schedule.make ~graph:g ~machine:m entries')
