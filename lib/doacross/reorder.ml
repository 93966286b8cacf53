module Graph = Mimd_ddg.Graph

type outcome = { analysis : Doacross.t; orders_tried : int; complete : bool }

exception Capped

let exhaustive ?(max_orders = 200_000) ~graph ~machine () =
  let n = Graph.node_count graph in
  let indeg = Array.make n 0 in
  List.iter
    (fun (e : Graph.edge) -> if e.distance = 0 then indeg.(e.dst) <- indeg.(e.dst) + 1)
    (Graph.edges graph);
  let best = ref None in
  let tried = ref 0 in
  let order = Array.make n 0 in
  let consider () =
    incr tried;
    if !tried > max_orders then raise Capped;
    let analysis = Doacross.analyze ~order:(Array.to_list order) ~graph ~machine () in
    match !best with
    | Some (b : Doacross.t) when b.delay <= analysis.delay -> ()
    | _ -> best := Some analysis
  in
  let rec extend depth =
    if depth = n then consider ()
    else
      for v = 0 to n - 1 do
        if indeg.(v) = 0 then begin
          indeg.(v) <- -1;
          order.(depth) <- v;
          List.iter
            (fun (e : Graph.edge) ->
              if e.distance = 0 then indeg.(e.dst) <- indeg.(e.dst) - 1)
            (Graph.succs graph v);
          extend (depth + 1);
          List.iter
            (fun (e : Graph.edge) ->
              if e.distance = 0 then indeg.(e.dst) <- indeg.(e.dst) + 1)
            (Graph.succs graph v);
          indeg.(v) <- 0
        end
      done
  in
  let complete = match extend 0 with () -> true | exception Capped -> false in
  match !best with
  | Some analysis -> { analysis; orders_tried = min !tried max_orders; complete }
  | None -> { analysis = Doacross.analyze ~graph ~machine (); orders_tried = 0; complete }

let heuristic ~graph ~machine () =
  let n = Graph.node_count graph in
  let is_lcd_src = Array.make n false in
  let is_lcd_dst = Array.make n false in
  List.iter
    (fun (e : Graph.edge) ->
      if e.distance >= 1 then begin
        is_lcd_src.(e.src) <- true;
        is_lcd_dst.(e.dst) <- true
      end)
    (Graph.edges graph);
  let indeg = Array.make n 0 in
  List.iter
    (fun (e : Graph.edge) -> if e.distance = 0 then indeg.(e.dst) <- indeg.(e.dst) + 1)
    (Graph.edges graph);
  let remaining = ref n in
  let order = ref [] in
  let score v =
    ((if is_lcd_dst.(v) then 1 else 0), (if is_lcd_src.(v) then 0 else 1), v)
  in
  while !remaining > 0 do
    let bestv = ref (-1) in
    for v = n - 1 downto 0 do
      if indeg.(v) = 0 then
        if !bestv < 0 || score v < score !bestv then bestv := v
    done;
    let v = !bestv in
    assert (v >= 0);
    indeg.(v) <- -1;
    decr remaining;
    order := v :: !order;
    List.iter
      (fun (e : Graph.edge) ->
        if e.distance = 0 then indeg.(e.dst) <- indeg.(e.dst) - 1)
      (Graph.succs graph v)
  done;
  Doacross.analyze ~order:(List.rev !order) ~graph ~machine ()

(* Bodies of at most this many nodes get the exhaustive search. *)
let exhaustive_node_limit = 9

let best ~graph ~machine () =
  if Graph.node_count graph <= exhaustive_node_limit then
    (exhaustive ~graph ~machine ()).analysis
  else begin
    let natural = Doacross.analyze ~graph ~machine () in
    let greedy = heuristic ~graph ~machine () in
    if greedy.Doacross.delay < natural.Doacross.delay then greedy else natural
  end
