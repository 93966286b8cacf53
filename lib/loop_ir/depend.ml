module Graph = Mimd_ddg.Graph

type kind = Flow | Anti | Output

type dep = {
  src_stmt : int;
  dst_stmt : int;
  distance : int;
  kind : kind;
  array : string;
  read : int option;
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

(* The one subscript rule.  Statement [src] touching [X\[i+c\]] and
   statement [dst] touching [X\[i+c'\]] meet on one element
   [delta = c - c'] iterations apart; the dependence runs from [src] to
   [dst] when [src]'s access comes first in sequential order: a later
   iteration, or the same one with [src] earlier in the body.  A fixed
   cell is one element in every iteration, so two accesses always
   meet: in the same iteration when [src] precedes [dst] in the body,
   else in the next.  Distance 0 thus always joins two statements. *)
let distance ~fixed ~src ~dst delta =
  if fixed then Some (if src < dst then 0 else 1)
  else if delta > 0 || (delta = 0 && src < dst) then Some delta
  else None

let deps loop =
  let stmts = Array.of_list (Ast.assignments loop) in
  let reads = Array.map (fun (_, _, rhs) -> Ast.reads_of_expr rhs) stmts in
  let found = ref [] in
  let emit src_stmt dst_stmt kind array read = function
    | Some distance -> found := { src_stmt; dst_stmt; distance; kind; array; read } :: !found
    | None -> ()
  in
  (* Flow and anti: every (write, read) pair on one array. *)
  Array.iteri
    (fun s (warr, a, _) ->
      let fixed = is_fixed_cell warr in
      Array.iteri
        (fun t reads_of_t ->
          List.iteri
            (fun k (rarr, b) ->
              if rarr = warr then begin
                emit s t Flow warr (Some k) (distance ~fixed ~src:s ~dst:t (a - b));
                emit t s Anti warr (Some k) (distance ~fixed ~src:t ~dst:s (b - a))
              end)
            reads_of_t)
        reads)
    stmts;
  (* Output: every ordered pair of writes on one array. *)
  Array.iteri
    (fun s (warr, a, _) ->
      let fixed = is_fixed_cell warr in
      Array.iteri
        (fun s' (warr', a', _) ->
          if warr = warr' then
            emit s s' Output warr None (distance ~fixed ~src:s ~dst:s' (a - a')))
        stmts)
    stmts;
  List.rev !found

let analyze ?(cost = Cost.weighted) loop =
  let loop = if Ast.is_flat loop then loop else If_convert.run loop in
  let stmts = Array.of_list (Ast.assignments loop) in
  if Array.length stmts = 0 then invalid_arg "Depend.analyze: empty loop body";
  let names = node_names stmts in
  let b = Graph.builder () in
  Array.iteri
    (fun idx (array, _, rhs) ->
      let kind = if is_predicate array then Graph.Predicate else Cost.kind_of_rhs rhs in
      ignore (Graph.add_node b ~latency:(Cost.expr_latency cost rhs) ~kind names.(idx)))
    stmts;
  let deps = deps loop in
  List.iter (fun d -> Graph.add_edge b ~src:d.src_stmt ~dst:d.dst_stmt ~distance:d.distance) deps;
  { loop; graph = Graph.build b; deps }

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
