exception Cycle of int list

module Iset = Set.Make (Int)

let find_cycle g ~use_edge =
  (* DFS cycle extraction for the error message. *)
  let n = Graph.node_count g in
  let colour = Array.make n 0 in
  (* 0 white, 1 grey, 2 black *)
  let parent = Array.make n (-1) in
  let cycle = ref [] in
  let rec dfs v =
    colour.(v) <- 1;
    List.iter
      (fun (e : Graph.edge) ->
        if !cycle = [] && use_edge e then
          if colour.(e.dst) = 1 then begin
            (* reconstruct v -> ... -> e.dst *)
            let rec climb u acc = if u = e.dst then u :: acc else climb parent.(u) (u :: acc) in
            cycle := climb v []
          end
          else if colour.(e.dst) = 0 then begin
            parent.(e.dst) <- v;
            dfs e.dst
          end)
      (Graph.succs g v);
    if colour.(v) = 1 then colour.(v) <- 2
  in
  for v = 0 to n - 1 do
    if !cycle = [] && colour.(v) = 0 then dfs v
  done;
  !cycle

let kahn g ~use_edge =
  let n = Graph.node_count g in
  let indeg = Array.make n 0 in
  List.iter (fun (e : Graph.edge) -> if use_edge e then indeg.(e.dst) <- indeg.(e.dst) + 1) (Graph.edges g);
  let frontier = ref Iset.empty in
  for v = 0 to n - 1 do
    if indeg.(v) = 0 then frontier := Iset.add v !frontier
  done;
  let order = ref [] in
  let emitted = ref 0 in
  while not (Iset.is_empty !frontier) do
    let v = Iset.min_elt !frontier in
    frontier := Iset.remove v !frontier;
    order := v :: !order;
    incr emitted;
    List.iter
      (fun (e : Graph.edge) ->
        if use_edge e then begin
          indeg.(e.dst) <- indeg.(e.dst) - 1;
          if indeg.(e.dst) = 0 then frontier := Iset.add e.dst !frontier
        end)
      (Graph.succs g v)
  done;
  if !emitted < n then raise (Cycle (find_cycle g ~use_edge));
  List.rev !order

let sort_zero g = kahn g ~use_edge:(fun e -> e.distance = 0)
let sort_all g = kahn g ~use_edge:(fun _ -> true)

let is_zero_acyclic g =
  match sort_zero g with _ -> true | exception Cycle _ -> false

let zero_levels g =
  let order = sort_zero g in
  let level = Array.make (Graph.node_count g) 0 in
  List.iter
    (fun v ->
      List.iter
        (fun (e : Graph.edge) ->
          if e.distance = 0 then
            level.(e.dst) <- max level.(e.dst) (level.(v) + Graph.latency g v))
        (Graph.succs g v))
    order;
  level
