module Graph = Mimd_ddg.Graph

type kind = Flow | Anti | Output

type dep = {
  src_stmt : int;
  dst_stmt : int;
  distance : int;
  kind : kind;
  array : string;
}

type t = { loop : Ast.loop; graph : Graph.t; deps : dep list }

let is_fixed_cell name = String.contains name '@'

let is_predicate name =
  String.length name >= String.length If_convert.predicate_prefix
  && String.sub name 0 (String.length If_convert.predicate_prefix)
     = If_convert.predicate_prefix

(* Unique display names: the written array, disambiguated when several
   statements write the same one. *)
let node_names stmts =
  let seen = Hashtbl.create 16 in
  Array.map
    (fun (array, _, _) ->
      let n = match Hashtbl.find_opt seen array with Some n -> n + 1 | None -> 0 in
      Hashtbl.replace seen array n;
      if n = 0 then array else Printf.sprintf "%s#%d" array n)
    stmts

let analyze ?(cost = Cost.weighted) loop =
  let loop = if Ast.is_flat loop then loop else If_convert.run loop in
  let stmts = Array.of_list (Ast.assignments loop) in
  let m = Array.length stmts in
  if m = 0 then invalid_arg "Depend.analyze: empty loop body";
  let names = node_names stmts in
  let b = Graph.builder () in
  Array.iteri
    (fun idx (array, _, rhs) ->
      let kind = if is_predicate array then Graph.Predicate else Cost.kind_of_rhs rhs in
      ignore (Graph.add_node b ~latency:(Cost.expr_latency cost rhs) ~kind names.(idx)))
    stmts;
  let deps = ref [] in
  let emit src_stmt dst_stmt distance kind array =
    if distance > 0 || (distance = 0 && src_stmt <> dst_stmt) then begin
      deps := { src_stmt; dst_stmt; distance; kind; array } :: !deps;
      Graph.add_edge b ~src:src_stmt ~dst:dst_stmt ~distance
    end
  in
  (* Writes: statement index -> (array, offset).  Reads likewise. *)
  let writes = Array.mapi (fun idx (array, offset, _) -> (idx, array, offset)) stmts in
  let reads =
    Array.to_list stmts
    |> List.mapi (fun idx (_, _, rhs) ->
           List.map (fun (array, offset) -> (idx, array, offset)) (Ast.reads_of_expr rhs))
    |> List.concat
  in
  (* Flow and anti dependences: every (write, read) pair on one array. *)
  Array.iter
    (fun (s, warr, a) ->
      List.iter
        (fun (t, rarr, bo) ->
          if warr = rarr then
            if is_fixed_cell warr then begin
              (* Same element every iteration. *)
              if t > s then emit s t 0 Flow warr else emit s t 1 Flow warr;
              if t < s then emit t s 0 Anti warr else emit t s 1 Anti warr
            end
            else begin
              let delta = a - bo in
              if delta > 0 then emit s t delta Flow warr
              else if delta = 0 && s < t then emit s t 0 Flow warr
              else if delta < 0 then emit t s (-delta) Anti warr
              else if delta = 0 && t < s then emit t s 0 Anti warr
            end)
        reads)
    writes;
  (* Output dependences: every ordered pair of writes on one array. *)
  Array.iter
    (fun (s, warr, a) ->
      Array.iter
        (fun (s', warr', a') ->
          if warr = warr' then
            if is_fixed_cell warr then begin
              if s < s' then emit s s' 0 Output warr;
              if s >= s' then emit s s' 1 Output warr
            end
            else begin
              let delta = a - a' in
              if delta > 0 then emit s s' delta Output warr
              else if delta = 0 && s < s' then emit s s' 0 Output warr
            end)
        writes)
    writes;
  { loop; graph = Graph.build b; deps = List.rev !deps }

let analyze_string ?cost src = analyze ?cost (Parser.parse src)

let of_source ?cost src =
  match Parser.parse src with
  | exception Parser.Error m -> Error ("parse error: " ^ m)
  | exception Lexer.Error { position; message } ->
    Error (Printf.sprintf "lex error at %d: %s" position message)
  | loop ->
    let loop = if Ast.is_flat loop then loop else If_convert.run loop in
    if Ast.assignments loop = [] then Error "parse error: empty loop body"
    else Ok (analyze ?cost loop)

let count t k = List.length (List.filter (fun d -> d.kind = k) t.deps)

let pp_dep t ppf d =
  let kind_str = match d.kind with Flow -> "flow" | Anti -> "anti" | Output -> "output" in
  Format.fprintf ppf "%s: %s -> %s (distance %d, via %s)" kind_str
    (Graph.name t.graph d.src_stmt) (Graph.name t.graph d.dst_stmt) d.distance d.array
