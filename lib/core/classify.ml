module Graph = Mimd_ddg.Graph
module Scc = Mimd_ddg.Scc

type membership = Flow_in | Cyclic | Flow_out

type t = {
  membership : membership array;
  flow_in : int list;
  cyclic : int list;
  flow_out : int list;
}

let collect membership =
  let flow_in = ref [] and cyclic = ref [] and flow_out = ref [] in
  for v = Array.length membership - 1 downto 0 do
    match membership.(v) with
    | Flow_in -> flow_in := v :: !flow_in
    | Cyclic -> cyclic := v :: !cyclic
    | Flow_out -> flow_out := v :: !flow_out
  done;
  { membership; flow_in = !flow_in; cyclic = !cyclic; flow_out = !flow_out }

(* The worklist formulation of Figure 2.  [remaining.(v)] counts the
   predecessors of [v] not yet proved Flow-in; when it reaches zero,
   [v] is Flow-in.  Self-edges keep their node out forever, matching
   the definition (a self-dependent node's predecessor set contains
   itself).  The Flow-out phase is the mirror image on the non-Flow-in
   subgraph. *)
let run g =
  let n = Graph.node_count g in
  let membership = Array.make n Cyclic in
  let in_flow_in = Array.make n false in
  let remaining = Array.make n 0 in
  for v = 0 to n - 1 do
    remaining.(v) <- List.length (Graph.preds g v)
  done;
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    if remaining.(v) = 0 then Queue.add v queue
  done;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    if not in_flow_in.(v) then begin
      in_flow_in.(v) <- true;
      membership.(v) <- Flow_in;
      List.iter
        (fun (e : Graph.edge) ->
          if e.dst <> v then begin
            remaining.(e.dst) <- remaining.(e.dst) - 1;
            if remaining.(e.dst) = 0 then Queue.add e.dst queue
          end)
        (Graph.succs g v)
    end
  done;
  let remaining_succ = Array.make n 0 in
  for v = 0 to n - 1 do
    if not in_flow_in.(v) then
      remaining_succ.(v) <-
        List.fold_left
          (fun acc (e : Graph.edge) -> if in_flow_in.(e.dst) then acc else acc + 1)
          0 (Graph.succs g v)
  done;
  let in_flow_out = Array.make n false in
  for v = 0 to n - 1 do
    if (not in_flow_in.(v)) && remaining_succ.(v) = 0 then Queue.add v queue
  done;
  while not (Queue.is_empty queue) do
    let v = Queue.take queue in
    if not in_flow_out.(v) then begin
      in_flow_out.(v) <- true;
      membership.(v) <- Flow_out;
      List.iter
        (fun (e : Graph.edge) ->
          if e.src <> v && not in_flow_in.(e.src) then begin
            remaining_succ.(e.src) <- remaining_succ.(e.src) - 1;
            if remaining_succ.(e.src) = 0 then Queue.add e.src queue
          end)
        (Graph.preds g v)
    end
  done;
  collect membership

let run_via_scc g =
  let n = Graph.node_count g in
  let scc = Scc.run g in
  let membership = Array.make n Cyclic in
  (* A node is Flow-in iff no cycle node reaches it: walk forward from
     every nontrivial SCC. *)
  let tainted_fwd = Array.make n false in
  let stack = ref [] in
  for v = 0 to n - 1 do
    if Scc.in_nontrivial scc v then begin
      tainted_fwd.(v) <- true;
      stack := v :: !stack
    end
  done;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      List.iter
        (fun (e : Graph.edge) ->
          if not tainted_fwd.(e.dst) then begin
            tainted_fwd.(e.dst) <- true;
            stack := e.dst :: !stack
          end)
        (Graph.succs g v)
  done;
  (* Among tainted nodes, Flow-out iff it reaches no cycle node: walk
     backward from nontrivial SCCs. *)
  let tainted_bwd = Array.make n false in
  for v = 0 to n - 1 do
    if Scc.in_nontrivial scc v then begin
      tainted_bwd.(v) <- true;
      stack := v :: !stack
    end
  done;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
      stack := rest;
      List.iter
        (fun (e : Graph.edge) ->
          if not tainted_bwd.(e.src) then begin
            tainted_bwd.(e.src) <- true;
            stack := e.src :: !stack
          end)
        (Graph.preds g v)
  done;
  for v = 0 to n - 1 do
    if not tainted_fwd.(v) then membership.(v) <- Flow_in
    else if not tainted_bwd.(v) then membership.(v) <- Flow_out
    else membership.(v) <- Cyclic
  done;
  collect membership

let is_doall t = t.cyclic = []

let cyclic_subgraph g t =
  Graph.subgraph g ~keep:(fun v -> t.membership.(v) = Cyclic)

let equal t1 t2 = t1.membership = t2.membership

let pp ~names ppf t =
  let show label ids =
    Format.fprintf ppf "%s: {%s}@," label (String.concat ", " (List.map names ids))
  in
  Format.fprintf ppf "@[<v>";
  show "Flow-in " t.flow_in;
  show "Cyclic  " t.cyclic;
  show "Flow-out" t.flow_out;
  Format.fprintf ppf "@]"
