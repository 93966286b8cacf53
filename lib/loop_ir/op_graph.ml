module Graph = Mimd_ddg.Graph

type t = {
  loop : Ast.loop;
  graph : Graph.t;
  root_of_stmt : int array;
  stmt_of_node : int array;
}

type operand =
  | Value of int  (** computed by an operation node *)
  | Imm  (** literal or loop-invariant scalar: free *)
  | Ext of string * int  (** direct array reference *)

let binop_cost (cost : Cost.t) = function
  | Ast.Add | Ast.Sub -> cost.Cost.add
  | Ast.Mul -> cost.Cost.mul
  | Ast.Div -> cost.Cost.div

let kind_of_binop = function
  | Ast.Add | Ast.Sub -> Graph.Add
  | Ast.Mul -> Graph.Mul
  | Ast.Div -> Graph.Div

let run ?(cost = Cost.weighted) loop =
  let loop = if Ast.is_flat loop then loop else If_convert.run loop in
  let stmts = Array.of_list (Ast.assignments loop) in
  let m = Array.length stmts in
  if m = 0 then invalid_arg "Op_graph.run: empty loop body";
  let b = Graph.builder () in
  let stmt_of_node_rev = ref [] in
  (* node -> direct array reads *)
  let reads_of_node : (int, (string * int) list) Hashtbl.t = Hashtbl.create 64 in
  let fresh ~stmt ~latency ~kind name =
    let id = Graph.add_node b ~latency:(max 1 latency) ~kind name in
    stmt_of_node_rev := (id, stmt) :: !stmt_of_node_rev;
    id
  in
  let note_read node r =
    let old = Option.value ~default:[] (Hashtbl.find_opt reads_of_node node) in
    Hashtbl.replace reads_of_node node (r :: old)
  in
  let attach node = function
    | Value src -> Graph.add_edge b ~src ~dst:node ~distance:0
    | Imm -> ()
    | Ext (array, offset) -> note_read node (array, offset)
  in
  let root_of_stmt = Array.make m 0 in
  Array.iteri
    (fun s (array, _, rhs) ->
      let opno = ref 0 in
      let name suffix =
        let n = Printf.sprintf "%s.%d%s" array !opno suffix in
        incr opno;
        n
      in
      let rec lower = function
        | Ast.Int _ | Ast.Scalar _ -> Imm
        | Ast.Ref { array; offset } -> Ext (array, offset)
        | Ast.Neg e -> lower e (* negation folds into its consumer *)
        | Ast.Binop (op, a, b') ->
          let oa = lower a and ob = lower b' in
          let node =
            fresh ~stmt:s ~latency:(binop_cost cost op) ~kind:(kind_of_binop op) (name "")
          in
          attach node oa;
          attach node ob;
          Value node
        | Ast.Select (p, a, b') ->
          let op' = lower p and oa = lower a and ob = lower b' in
          let node = fresh ~stmt:s ~latency:cost.Cost.select ~kind:Graph.Compare (name "sel") in
          attach node op';
          attach node oa;
          attach node ob;
          Value node
      in
      let root =
        match lower rhs with
        | Value n -> n
        | (Imm | Ext _) as operand ->
          (* A plain move still materialises the value somewhere. *)
          let kind = if Depend.is_predicate array then Graph.Predicate else Graph.Copy in
          let node = fresh ~stmt:s ~latency:cost.Cost.base ~kind (array ^ ".cp") in
          attach node operand;
          node
      in
      root_of_stmt.(s) <- root)
    stmts;
  (* Cross-statement dependences at operation precision: the write
     happens at a statement's root node; reads happen at the operation
     nodes that consume the array reference directly. *)
  let read_nodes =
    Hashtbl.fold (fun node rs acc -> List.map (fun r -> (node, r)) rs @ acc) reads_of_node []
  in
  let edge src dst distance =
    if distance > 0 || src <> dst then Graph.add_edge b ~src ~dst ~distance
  in
  Array.iteri
    (fun s (warr, a, _) ->
      List.iter
        (fun (node, (rarr, bo)) ->
          if rarr = warr then begin
            let t = List.assoc node !stmt_of_node_rev in
            let root = root_of_stmt.(s) in
            if Depend.is_fixed_cell warr then begin
              if t > s then edge root node 0 else edge root node 1;
              if t < s then edge node root 0 else edge node root 1
            end
            else begin
              let delta = a - bo in
              if delta > 0 then edge root node delta
              else if delta = 0 && s < t then edge root node 0
              else if delta < 0 then edge node root (-delta)
              else if delta = 0 && t < s then edge node root 0
            end
          end)
        read_nodes)
    stmts;
  (* Output dependences between statement roots. *)
  Array.iteri
    (fun s (warr, a, _) ->
      Array.iteri
        (fun s' (warr', a', _) ->
          if warr = warr' then
            if Depend.is_fixed_cell warr then begin
              if s < s' then edge root_of_stmt.(s) root_of_stmt.(s') 0
              else edge root_of_stmt.(s) root_of_stmt.(s') 1
            end
            else begin
              let delta = a - a' in
              if delta > 0 then edge root_of_stmt.(s) root_of_stmt.(s') delta
              else if delta = 0 && s < s' then edge root_of_stmt.(s) root_of_stmt.(s') 0
            end)
        stmts)
    stmts;
  let graph = Graph.build b in
  let stmt_of_node = Array.make (Graph.node_count graph) 0 in
  List.iter (fun (node, s) -> stmt_of_node.(node) <- s) !stmt_of_node_rev;
  { loop; graph; root_of_stmt; stmt_of_node }

let run_string ?cost src = run ?cost (Parser.parse src)

let node_count_of_stmt t s =
  Array.fold_left (fun acc s' -> if s' = s then acc + 1 else acc) 0 t.stmt_of_node
