module Graph = Mimd_ddg.Graph
module Topo = Mimd_ddg.Topo
module Config = Mimd_machine.Config

let processors_needed ~subset_latency ~height ~iter_shift =
  if subset_latency = 0 then 0
  else begin
    if height <= 0 || iter_shift <= 0 then invalid_arg "Flow_sched.processors_needed";
    let num = subset_latency * iter_shift in
    max 1 ((num + height - 1) / height)
  end

(* Dependence order within a subset: the distance-0 topological order
   restricted to the subset, ascending node id on ties — the same
   consistent order used by Cyclic-sched. *)
let subset_order graph subset =
  let in_subset = Hashtbl.create 16 in
  List.iter (fun v -> Hashtbl.replace in_subset v ()) subset;
  List.filter (Hashtbl.mem in_subset) (Topo.sort_zero graph)

let place_sequentially ~graph ~subset ~procs ~base_proc ~iterations ~ready_time =
  if procs = 0 || subset = [] then []
  else begin
    let order = subset_order graph subset in
    let placed =
      Schedule.Index.create ~nodes:(Graph.node_count graph) ~iter_lo:0 ~span:iterations
    in
    let avail = Array.make procs 0 in
    let entries = ref [] in
    for i = 0 to iterations - 1 do
      let slot = i mod procs in
      let proc = base_proc + slot in
      List.iter
        (fun v ->
          let ready = ready_time ~placed ~proc ~node:v ~iter:i in
          let start = max avail.(slot) ready in
          let entry = Schedule.{ inst = { node = v; iter = i }; proc; start } in
          avail.(slot) <- start + Graph.latency graph v;
          Schedule.Index.add placed entry;
          entries := entry :: !entries)
        order
    done;
    List.rev !entries
  end

let flow_in_entries ~graph ~machine ~flow_in ~procs ~base_proc ~iterations =
  let ready_time ~placed ~proc ~node ~iter =
    List.fold_left
      (fun acc (e : Graph.edge) ->
        let pi = iter - e.distance in
        if pi < 0 then acc
        else
          match Schedule.Index.find placed { node = e.src; iter = pi } with
          | Some (pe : Schedule.entry) ->
            let comm = if pe.proc = proc then 0 else Config.edge_cost machine e in
            max acc (pe.start + Graph.latency graph e.src + comm)
          | None -> acc)
      0
      (Graph.preds graph node)
  in
  place_sequentially ~graph ~subset:flow_in ~procs ~base_proc ~iterations ~ready_time

let flow_out_entries ~graph ~machine ~flow_out ~procs ~base_proc ~iterations ~producer =
  let ready_time ~placed ~proc ~node ~iter =
    List.fold_left
      (fun acc (e : Graph.edge) ->
        let pi = iter - e.distance in
        if pi < 0 then acc
        else
          let found =
            match Schedule.Index.find placed { node = e.src; iter = pi } with
            | Some pe -> Some pe
            | None -> producer Schedule.{ node = e.src; iter = pi }
          in
          match found with
          | Some (pe : Schedule.entry) ->
            let comm = if pe.proc = proc then 0 else Config.edge_cost machine e in
            max acc (pe.start + Graph.latency graph e.src + comm)
          | None -> acc)
      0
      (Graph.preds graph node)
  in
  place_sequentially ~graph ~subset:flow_out ~procs ~base_proc ~iterations ~ready_time

let required_shift ~graph ~machine ~flow_entry ~consumers =
  List.fold_left
    (fun acc (c : Schedule.entry) ->
      List.fold_left
        (fun acc (e : Graph.edge) ->
          let pi = c.inst.iter - e.distance in
          if pi < 0 then acc
          else
            match flow_entry Schedule.{ node = e.src; iter = pi } with
            | None -> acc
            | Some (pe : Schedule.entry) ->
              let comm = if pe.proc = c.proc then 0 else Config.edge_cost machine e in
              let needed = pe.start + Graph.latency graph e.src + comm - c.start in
              max acc needed)
        acc
        (Graph.preds graph c.inst.node))
    0 consumers
