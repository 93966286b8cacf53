module Graph = Mimd_ddg.Graph
module Config = Mimd_machine.Config

type instance = { node : int; iter : int }

(* (iter, node) lexicographic — written out so comparing allocates no
   intermediate tuples.  It is the final tie-break of the entry order
   below, so changing it reorders {!entries}. *)
let compare_instance a b =
  if a.iter <> b.iter then compare a.iter b.iter else compare a.node b.node

type entry = { inst : instance; proc : int; start : int }

let absent = { inst = { node = 0; iter = 0 }; proc = 0; start = -1 }

(* A dense table over the instance space [nodes] x [iter_lo, iter_lo +
   span): instance (node, iter) lives at [(iter - iter_lo) * nodes +
   node], and [absent] fills the holes, so a lookup is one bounds check
   and one array read.  Absence is tested by [start < 0], never by
   physical equality: an unmarshalled schedule carries its own copy of
   [absent]. *)
module Index = struct
  type t = { nodes : int; iter_lo : int; span : int; cells : entry array }

  let create ~nodes ~iter_lo ~span =
    { nodes; iter_lo; span; cells = Array.make (span * nodes) absent }

  (* [(iter_lo, span)] of the iterations [entries] reach; [(0, 0)]
     for none. *)
  let iter_range entries =
    let lo = ref max_int and hi = ref min_int in
    List.iter
      (fun e ->
        if e.inst.iter < !lo then lo := e.inst.iter;
        if e.inst.iter > !hi then hi := e.inst.iter)
      entries;
    if entries = [] then (0, 0) else (!lo, !hi - !lo + 1)

  let key_of t ~node ~iter =
    let d = iter - t.iter_lo in
    if d < 0 || d >= t.span || node < 0 || node >= t.nodes then -1 else (d * t.nodes) + node

  let key t inst = key_of t ~node:inst.node ~iter:inst.iter

  let slot t inst =
    let k = key t inst in
    if k < 0 then absent else t.cells.(k)

  let mem t inst = (slot t inst).start >= 0

  let proc_at t ~node ~iter =
    let k = key_of t ~node ~iter in
    if k < 0 then -1 else if t.cells.(k).start < 0 then -1 else t.cells.(k).proc

  let start_at t ~node ~iter =
    let k = key_of t ~node ~iter in
    if k < 0 then -1 else t.cells.(k).start

  let find t inst =
    let e = slot t inst in
    if e.start < 0 then None else Some e

  let add t e =
    let k = key t e.inst in
    if k < 0 then invalid_arg "Schedule.Index.add: instance outside the table";
    t.cells.(k) <- e

  let of_entries ~nodes entries =
    let iter_lo, span = iter_range entries in
    let t = create ~nodes ~iter_lo ~span in
    List.iter (add t) entries;
    t
end

type t = {
  graph : Graph.t;
  machine : Config.t;
  all : entry list; (* ascending (start, proc) *)
  index : Index.t;
  by_proc : entry list array; (* ascending start *)
}

(* The per-entry checks and the instance index every schedule carries.
   [make] and [check] share them, so both raise the same errors. *)
let index_entries ~graph ~machine entry_list =
  let nodes = Graph.node_count graph in
  List.iter
    (fun e ->
      if e.start < 0 then invalid_arg "Schedule.make: negative start";
      if e.proc < 0 || e.proc >= machine.Config.processors then
        invalid_arg "Schedule.make: processor out of range";
      if e.inst.node < 0 || e.inst.node >= nodes then
        invalid_arg "Schedule.make: unknown node")
    entry_list;
  let iter_lo, span = Index.iter_range entry_list in
  let index = Index.create ~nodes ~iter_lo ~span in
  List.iter
    (fun e ->
      if Index.mem index e.inst then invalid_arg "Schedule.make: duplicate instance";
      Index.add index e)
    entry_list;
  index

let check ~graph ~machine entry_list = ignore (index_entries ~graph ~machine entry_list)

let compare_entry a b =
  if a.start <> b.start then compare a.start b.start
  else if a.proc <> b.proc then compare a.proc b.proc
  else compare_instance a.inst b.inst

let rec ascending = function
  | a :: (b :: _ as rest) -> compare_entry a b < 0 && ascending rest
  | [ _ ] | [] -> true

let make ~graph ~machine entry_list =
  let index = index_entries ~graph ~machine entry_list in
  (* a list that already ascends (the greedy's does) is kept as is *)
  let all = if ascending entry_list then entry_list else List.sort compare_entry entry_list in
  let by_proc = Array.make machine.Config.processors [] in
  List.iter (fun e -> by_proc.(e.proc) <- e :: by_proc.(e.proc)) (List.rev all);
  { graph; machine; all; index; by_proc }

let graph t = t.graph
let machine t = t.machine
let entries t = t.all
let entries_on t p = t.by_proc.(p)
let find t inst = Index.find t.index inst
let is_scheduled t inst = Index.mem t.index inst
let proc_at t ~node ~iter = Index.proc_at t.index ~node ~iter
let start_at t ~node ~iter = Index.start_at t.index ~node ~iter

let finish t e = e.start + Graph.latency t.graph e.inst.node
let makespan t = List.fold_left (fun acc e -> max acc (finish t e)) 0 t.all
let instance_count t = List.length t.all

let iterations t = max 0 (t.index.Index.iter_lo + t.index.Index.span)

let busy_cycles_on t p =
  List.fold_left (fun acc e -> acc + Graph.latency t.graph e.inst.node) 0 t.by_proc.(p)

let utilization t =
  let span = makespan t in
  if span = 0 then 0.0
  else begin
    let busy = ref 0 in
    for p = 0 to t.machine.Config.processors - 1 do
      busy := !busy + busy_cycles_on t p
    done;
    float_of_int !busy /. float_of_int (t.machine.Config.processors * span)
  end

type violation =
  | Overlap of entry * entry
  | Dependence_violated of { pred : entry; succ : entry; required_start : int }
  | Missing_predecessor of { succ : entry; pred_inst : instance }

let violations_gen ~closed t =
  let out = ref [] in
  Array.iter
    (fun proc_entries ->
      let rec overlaps = function
        | e1 :: (e2 :: _ as rest) ->
          if finish t e1 > e2.start then out := Overlap (e1, e2) :: !out;
          overlaps rest
        | [ _ ] | [] -> ()
      in
      overlaps proc_entries)
    t.by_proc;
  List.iter
    (fun succ_entry ->
      List.iter
        (fun (e : Graph.edge) ->
          let pred_inst = { node = e.src; iter = succ_entry.inst.iter - e.distance } in
          if pred_inst.iter >= 0 then
            match find t pred_inst with
            | None ->
              if closed then out := Missing_predecessor { succ = succ_entry; pred_inst } :: !out
            | Some pred_entry ->
              let comm =
                if pred_entry.proc = succ_entry.proc then 0
                else Config.edge_cost t.machine e
              in
              let required_start = finish t pred_entry + comm in
              if succ_entry.start < required_start then
                out :=
                  Dependence_violated { pred = pred_entry; succ = succ_entry; required_start }
                  :: !out)
        (Graph.preds t.graph succ_entry.inst.node))
    t.all;
  List.rev !out

let violations t = violations_gen ~closed:true t

let pp_violation ~names ppf v =
  let inst_str i = Printf.sprintf "%s_%d" (names i.node) i.iter in
  match v with
  | Overlap (e1, e2) ->
    Format.fprintf ppf "overlap on PE%d: %s@%d and %s@%d" e1.proc (inst_str e1.inst)
      e1.start (inst_str e2.inst) e2.start
  | Dependence_violated { pred; succ; required_start } ->
    Format.fprintf ppf "%s@%d starts before %s allows (needs >= %d)" (inst_str succ.inst)
      succ.start (inst_str pred.inst) required_start
  | Missing_predecessor { succ; pred_inst } ->
    Format.fprintf ppf "%s scheduled but predecessor %s is not" (inst_str succ.inst)
      (inst_str pred_inst)

let validate ?(closed = true) t =
  match violations_gen ~closed t with
  | [] -> Ok ()
  | v :: _ ->
    let names i = Graph.name t.graph i in
    Error (Format.asprintf "%a" (pp_violation ~names) v)

let render_grid ?max_cycles t =
  let span = makespan t in
  let limit = match max_cycles with None -> span | Some m -> min m span in
  let p = t.machine.Config.processors in
  let cells = Array.make_matrix limit p "" in
  List.iter
    (fun e ->
      let lat = Graph.latency t.graph e.inst.node in
      let label = Printf.sprintf "%s%d" (Graph.name t.graph e.inst.node) e.inst.iter in
      for c = e.start to min (e.start + lat - 1) (limit - 1) do
        if c >= 0 && c < limit then cells.(c).(e.proc) <- (if c = e.start then label else "|")
      done)
    t.all;
  let width = Array.fold_left (fun acc row -> Array.fold_left (fun a s -> max a (String.length s)) acc row) 4 cells in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "%5s " "step");
  for j = 0 to p - 1 do
    Buffer.add_string buf (Printf.sprintf " %-*s" width (Printf.sprintf "PE%d" j))
  done;
  Buffer.add_char buf '\n';
  for c = 0 to limit - 1 do
    Buffer.add_string buf (Printf.sprintf "%5d " c);
    for j = 0 to p - 1 do
      Buffer.add_string buf (Printf.sprintf " %-*s" width cells.(c).(j))
    done;
    Buffer.add_char buf '\n'
  done;
  if limit < span then Buffer.add_string buf (Printf.sprintf "  ... (%d more cycles)\n" (span - limit));
  Buffer.contents buf

let pp ppf t =
  Format.fprintf ppf "schedule: %d instances on %d PEs, makespan %d@,%s" (instance_count t)
    t.machine.Config.processors (makespan t) (render_grid t)
