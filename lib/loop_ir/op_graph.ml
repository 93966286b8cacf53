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
  | Read of int  (** the statement's [k]-th array reference *)

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
  let fresh ~stmt ~latency ~kind name =
    let id = Graph.add_node b ~latency:(max 1 latency) ~kind name in
    stmt_of_node_rev := (id, stmt) :: !stmt_of_node_rev;
    id
  in
  let root_of_stmt = Array.make m 0 in
  (* [reader.(s).(k)]: the node consuming statement [s]'s [k]-th read. *)
  let reader =
    Array.map (fun (_, _, rhs) -> Array.make (List.length (Ast.reads_of_expr rhs)) 0) stmts
  in
  Array.iteri
    (fun s (array, _, rhs) ->
      let opno = ref 0 and nread = ref 0 in
      let name suffix =
        let n = Printf.sprintf "%s.%d%s" array !opno suffix in
        incr opno;
        n
      in
      let attach node = function
        | Value src -> Graph.add_edge b ~src ~dst:node ~distance:0
        | Imm -> ()
        | Read k -> reader.(s).(k) <- node
      in
      (* Leaves are visited left to right, the order of
         [Ast.reads_of_expr], so [Read k] names the [k]-th read. *)
      let rec lower = function
        | Ast.Int _ | Ast.Scalar _ -> Imm
        | Ast.Ref _ ->
          let k = !nread in
          incr nread;
          Read k
        | Ast.Neg e -> lower e (* negation folds into its consumer *)
        | Ast.Binop (op, a, b') ->
          let oa = lower a in
          let ob = lower b' in
          let node =
            fresh ~stmt:s ~latency:(binop_cost cost op) ~kind:(kind_of_binop op) (name "")
          in
          attach node oa;
          attach node ob;
          Value node
        | Ast.Select (p, a, b') ->
          let op' = lower p in
          let oa = lower a in
          let ob = lower b' in
          let node = fresh ~stmt:s ~latency:cost.Cost.select ~kind:Graph.Compare (name "sel") in
          attach node op';
          attach node oa;
          attach node ob;
          Value node
      in
      let root =
        match lower rhs with
        | Value n -> n
        | (Imm | Read _) as operand ->
          (* A plain move still materialises the value somewhere. *)
          let kind = if Depend.is_predicate array then Graph.Predicate else Graph.Copy in
          let node = fresh ~stmt:s ~latency:cost.Cost.base ~kind (array ^ ".cp") in
          attach node operand;
          node
      in
      root_of_stmt.(s) <- root)
    stmts;
  (* Cross-statement dependences at operation precision: the write
     happens at a statement's root node; a read happens at the
     operation node that consumes the array reference directly. *)
  List.iter
    (fun (d : Depend.dep) ->
      let src, dst =
        match (d.kind, d.read) with
        | Depend.Flow, Some k -> (root_of_stmt.(d.src_stmt), reader.(d.dst_stmt).(k))
        | Depend.Anti, Some k -> (reader.(d.src_stmt).(k), root_of_stmt.(d.dst_stmt))
        | _ -> (root_of_stmt.(d.src_stmt), root_of_stmt.(d.dst_stmt))
      in
      Graph.add_edge b ~src ~dst ~distance:d.distance)
    (Depend.deps loop);
  let graph = Graph.build b in
  let stmt_of_node = Array.make (Graph.node_count graph) 0 in
  List.iter (fun (node, s) -> stmt_of_node.(node) <- s) !stmt_of_node_rev;
  { loop; graph; root_of_stmt; stmt_of_node }

let run_string ?cost src = run ?cost (Parser.parse src)

let node_count_of_stmt t s =
  Array.fold_left (fun acc s' -> if s' = s then acc + 1 else acc) 0 t.stmt_of_node
