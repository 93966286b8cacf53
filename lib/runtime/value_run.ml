module Program = Mimd_codegen.Program
module Graph = Mimd_ddg.Graph
module Ast = Mimd_loop_ir.Ast
module Interp = Mimd_loop_ir.Interp

type outcome = {
  instance_values : ((int * int) * float) list;
  final : (string * int * float) list;
  messages : int;
  domains : int;
  domain_wall_ns : float array;
  makespan_ns : float;
}

type payload =
  | Single of float
  | Pack of ((int * int) * float) array

type chans = {
  send : dst:int -> tag:int * int -> payload -> unit;
  recv : src:int -> tag:int * int -> payload;
}

let default_channel_capacity = 256

(* Authoritative final memory: every cell takes the value of its last
   writer in sequential (iteration, body position) order. *)
let settle stmts values =
  let last_writer : (string * int, (int * int) * float) Hashtbl.t = Hashtbl.create 256 in
  Hashtbl.iter
    (fun (node, iter) v ->
      let array, offset, _ = stmts.(node) in
      let cell = (array, Interp.cell_index array ~iter ~offset) in
      let better =
        match Hashtbl.find_opt last_writer cell with
        | None -> true
        | Some ((i', s'), _) -> (iter, node) > (i', s')
      in
      if better then Hashtbl.replace last_writer cell ((iter, node), v))
    values;
  let final =
    Hashtbl.fold (fun (a, i) (_, v) acc -> (a, i, v) :: acc) last_writer []
    |> List.sort compare
  in
  let instance_values =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) values [] |> List.sort compare
  in
  (instance_values, final)

let finalize ~loop ~program ~results =
  if not (Ast.is_flat loop) then invalid_arg "Value_run: loop must be flat";
  let stmts = Array.of_list (Ast.assignments loop) in
  if Array.length stmts <> Graph.node_count program.Program.graph then
    invalid_arg "Value_run: statement/node count mismatch";
  let values : (int * int, float) Hashtbl.t = Hashtbl.create 1024 in
  let messages = ref 0 in
  Array.iter
    (fun (computed, sent, _) ->
      messages := !messages + sent;
      List.iter (fun (k, v) -> Hashtbl.replace values k v) computed)
    results;
  let instance_values, final = settle stmts values in
  let domain_wall_ns = Array.map (fun (_, _, ns) -> ns) results in
  {
    instance_values;
    final;
    messages = !messages;
    domains = program.Program.processors;
    domain_wall_ns;
    makespan_ns = Array.fold_left max 0.0 domain_wall_ns;
  }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_against_sequential ?init ?scalars ~loop ~iterations outcome =
  let expected = Interp.written_cells (Interp.run ?init ?scalars loop ~iterations) in
  let got = outcome.final in
  if List.length expected <> List.length got then
    Error
      (Printf.sprintf "cell count mismatch: sequential wrote %d, parallel %d"
         (List.length expected) (List.length got))
  else begin
    let rec compare_cells = function
      | [], [] -> Ok ()
      | (a1, i1, v1) :: r1, (a2, i2, v2) :: r2 ->
        if a1 <> a2 || i1 <> i2 then
          Error (Printf.sprintf "cell mismatch: sequential %s[%d] vs parallel %s[%d]" a1 i1 a2 i2)
        else if not (same_bits v1 v2) then
          Error
            (Printf.sprintf "value mismatch at %s[%d]: sequential %.17g, parallel %.17g" a1 i1
               v1 v2)
        else compare_cells (r1, r2)
      | _ -> Error "cell list length mismatch"
    in
    compare_cells (expected, got)
  end

let check_instances ~spec got =
  let sort l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  let rec go = function
    | [], [] -> Ok ()
    | ((s, i), v) :: r1, ((s', i'), v') :: r2 ->
      if s <> s' || i <> i' then
        Error (Printf.sprintf "instance sets differ at (%d,%d) vs (%d,%d)" s i s' i')
      else if not (same_bits v v') then
        Error (Printf.sprintf "instance (%d,%d): sequential %h, parallel %h" s i v v')
      else go (r1, r2)
    | _ -> Error "instance list length mismatch"
  in
  if List.length spec <> List.length got then
    Error
      (Printf.sprintf "sequential computed %d instance(s), parallel %d"
         (List.length spec) (List.length got))
  else go (sort spec, sort got)
