type kind =
  | Generic
  | Add
  | Mul
  | Div
  | Load
  | Store
  | Copy
  | Compare
  | Predicate

type node = { id : int; name : string; latency : int; kind : kind }
type edge = { src : int; dst : int; distance : int; cost : int option }

(* Full_sched values embed graphs and are marshalled into the on-disk
   schedule cache, whose stamp carries [Disk_cache.format_version]: any
   change to this record (or to [node]/[edge]) must bump that version,
   since the stamp only catches a layout change that bumps it.  The
   per-node lists are the one adjacency; a pass that wants flat arrays
   in an inner loop flattens them itself. *)
type t = {
  node_arr : node array;
  edge_list : edge list;
  succ_arr : edge list array;
  pred_arr : edge list array;
}

type builder = {
  mutable b_nodes : node list; (* reversed *)
  mutable b_count : int;
  b_edges : (int * int * int, int option) Hashtbl.t;
  mutable b_order : (int * int * int) list; (* reversed insertion order *)
}

let builder () = { b_nodes = []; b_count = 0; b_edges = Hashtbl.create 64; b_order = [] }

let add_node b ?(latency = 1) ?(kind = Generic) name =
  if latency < 1 then invalid_arg "Graph.add_node: latency < 1";
  let id = b.b_count in
  b.b_nodes <- { id; name; latency; kind } :: b.b_nodes;
  b.b_count <- id + 1;
  id

let add_edge ?cost b ~src ~dst ~distance =
  if src < 0 || src >= b.b_count then invalid_arg "Graph.add_edge: unknown src";
  if dst < 0 || dst >= b.b_count then invalid_arg "Graph.add_edge: unknown dst";
  if distance < 0 then invalid_arg "Graph.add_edge: negative distance";
  (match cost with
  | Some c when c < 0 -> invalid_arg "Graph.add_edge: negative cost"
  | _ -> ());
  let key = (src, dst, distance) in
  match Hashtbl.find_opt b.b_edges key with
  | None ->
    Hashtbl.add b.b_edges key cost;
    b.b_order <- key :: b.b_order
  | Some old ->
    let merged =
      match (old, cost) with
      | None, _ | _, None -> None (* an unannotated duplicate keeps the default k *)
      | Some a, Some c -> Some (min a c)
    in
    Hashtbl.replace b.b_edges key merged

let build b =
  if b.b_count = 0 then invalid_arg "Graph.build: empty graph";
  let node_arr = Array.of_list (List.rev b.b_nodes) in
  let n = Array.length node_arr in
  let edge_list =
    List.rev_map
      (fun ((src, dst, distance) as key) ->
        { src; dst; distance; cost = Hashtbl.find b.b_edges key })
      b.b_order
  in
  let succ_arr = Array.make n [] in
  let pred_arr = Array.make n [] in
  List.iter
    (fun e ->
      succ_arr.(e.src) <- e :: succ_arr.(e.src);
      pred_arr.(e.dst) <- e :: pred_arr.(e.dst))
    edge_list;
  let by_dst e1 e2 = compare (e1.dst, e1.distance) (e2.dst, e2.distance) in
  let by_src e1 e2 = compare (e1.src, e1.distance) (e2.src, e2.distance) in
  Array.iteri (fun i l -> succ_arr.(i) <- List.sort by_dst l) succ_arr;
  Array.iteri (fun i l -> pred_arr.(i) <- List.sort by_src l) pred_arr;
  { node_arr; edge_list; succ_arr; pred_arr }

let of_arrays ?names ~latencies ~edges () =
  let b = builder () in
  Array.iteri
    (fun i lat ->
      let name =
        match names with Some ns -> ns.(i) | None -> Printf.sprintf "n%d" i
      in
      ignore (add_node b ~latency:lat name))
    latencies;
  List.iter (fun (src, dst, distance) -> add_edge b ~src ~dst ~distance) edges;
  build b

let node_count g = Array.length g.node_arr
let node g i = g.node_arr.(i)
let nodes g = Array.to_list g.node_arr
let edges g = g.edge_list
let succs g i = g.succ_arr.(i)
let preds g i = g.pred_arr.(i)
let latency g i = g.node_arr.(i).latency
let name g i = g.node_arr.(i).name
let kind g i = g.node_arr.(i).kind

let edge_count g = List.length g.edge_list

let max_distance g = List.fold_left (fun acc e -> max acc e.distance) 0 g.edge_list
let total_latency g = Array.fold_left (fun acc nd -> acc + nd.latency) 0 g.node_arr
let has_loop_carried g = List.exists (fun e -> e.distance >= 1) g.edge_list

let subgraph g ~keep =
  let n = node_count g in
  let new_of_old = Array.make n (-1) in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if keep i then begin
      new_of_old.(i) <- !count;
      incr count
    end
  done;
  let old_of_new = Array.make !count 0 in
  for i = 0 to n - 1 do
    if new_of_old.(i) >= 0 then old_of_new.(new_of_old.(i)) <- i
  done;
  if !count = 0 then invalid_arg "Graph.subgraph: empty selection";
  let b = builder () in
  Array.iter
    (fun old_id ->
      let nd = g.node_arr.(old_id) in
      ignore (add_node b ~latency:nd.latency ~kind:nd.kind nd.name))
    old_of_new;
  List.iter
    (fun e ->
      let s = new_of_old.(e.src) and d = new_of_old.(e.dst) in
      if s >= 0 && d >= 0 then add_edge b ?cost:e.cost ~src:s ~dst:d ~distance:e.distance)
    g.edge_list;
  (build b, old_of_new, new_of_old)

let connected_components g =
  let n = node_count g in
  let comp = Array.make n (-1) in
  let current = ref 0 in
  let neighbours i =
    List.map (fun e -> e.dst) g.succ_arr.(i) @ List.map (fun e -> e.src) g.pred_arr.(i)
  in
  for i = 0 to n - 1 do
    if comp.(i) < 0 then begin
      let c = !current in
      incr current;
      let stack = ref [ i ] in
      comp.(i) <- c;
      while !stack <> [] do
        match !stack with
        | [] -> ()
        | x :: rest ->
          stack := rest;
          List.iter
            (fun y ->
              if comp.(y) < 0 then begin
                comp.(y) <- c;
                stack := y :: !stack
              end)
            (neighbours x)
      done
    end
  done;
  let buckets = Array.make !current [] in
  for i = n - 1 downto 0 do
    buckets.(comp.(i)) <- i :: buckets.(comp.(i))
  done;
  Array.to_list buckets

let is_connected g = List.length (connected_components g) = 1

let equal_structure g1 g2 =
  node_count g1 = node_count g2
  && Array.for_all2
       (fun n1 n2 -> n1.latency = n2.latency && n1.kind = n2.kind)
       g1.node_arr g2.node_arr
  &&
  let key e = (e.src, e.dst, e.distance, e.cost) in
  let sorted g = List.sort compare (List.map key g.edge_list) in
  sorted g1 = sorted g2

let pp ppf g =
  Format.fprintf ppf "@[<v>graph (%d nodes, %d edges)@," (node_count g) (edge_count g);
  Array.iter
    (fun nd ->
      Format.fprintf ppf "  [%d] %s lat=%d@," nd.id nd.name nd.latency)
    g.node_arr;
  List.iter
    (fun e ->
      Format.fprintf ppf "  %s -> %s dist=%d%s@," (name g e.src) (name g e.dst)
        e.distance
        (match e.cost with None -> "" | Some c -> Printf.sprintf " cost=%d" c))
    g.edge_list;
  Format.fprintf ppf "@]"
