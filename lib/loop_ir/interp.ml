(* Deterministic pseudo-values in [1, 2): never zero, so divisions stay
   finite and value comparisons are exact across runs. *)
let hashed_unit_float h = 1.0 +. (float_of_int (h land 0xFFFF) /. 65536.0)
let init name index = hashed_unit_float (Hashtbl.hash (name, index))
let default_scalar name = hashed_unit_float (Hashtbl.hash name)

type store = {
  cells : (string * int, float) Hashtbl.t;
  initial : string -> int -> float;
}

let create_store ?(init = init) () = { cells = Hashtbl.create 256; initial = init }

let cell_index array ~iter ~offset = if Depend.is_fixed_cell array then 0 else iter + offset

let read_idx st array index =
  match Hashtbl.find_opt st.cells (array, index) with
  | Some v -> v
  | None -> st.initial array index

let write_idx st array index v = Hashtbl.replace st.cells (array, index) v

let read st array index = read_idx st array index
let write st array index v = write_idx st array index v

let written_cells st =
  Hashtbl.fold (fun (a, i) v acc -> (a, i, v) :: acc) st.cells [] |> List.sort compare

let truthy v = v > 0.0

let rec eval_expr st ~scalars ~iter (e : Ast.expr) =
  match e with
  | Ast.Int k -> float_of_int k
  | Ast.Scalar s -> scalars s
  | Ast.Ref { array; offset } -> read_idx st array (cell_index array ~iter ~offset)
  | Ast.Neg e -> -.eval_expr st ~scalars ~iter e
  | Ast.Binop (op, a, b) ->
    let va = eval_expr st ~scalars ~iter a and vb = eval_expr st ~scalars ~iter b in
    (match op with
    | Ast.Add -> va +. vb
    | Ast.Sub -> va -. vb
    | Ast.Mul -> va *. vb
    | Ast.Div -> va /. vb)
  | Ast.Select (p, a, b) ->
    if truthy (eval_expr st ~scalars ~iter p) then eval_expr st ~scalars ~iter a
    else eval_expr st ~scalars ~iter b

(* One sequential walk; [record pos iter v] sees every top-level
   assignment's value (body position [pos], iteration [iter]). *)
let exec_loop ?init:init_fn ~scalars ~record (loop : Ast.loop) ~iterations =
  if iterations < 0 then invalid_arg "Interp.run: negative iterations";
  let st = create_store ?init:init_fn () in
  let assign ~iter array offset rhs =
    let v = eval_expr st ~scalars ~iter rhs in
    write_idx st array (cell_index array ~iter ~offset) v;
    v
  in
  let rec exec_stmt ~iter = function
    | Ast.Assign { array; offset; rhs } -> ignore (assign ~iter array offset rhs)
    | Ast.If { cond; then_; else_ } ->
      let branch = if truthy (eval_expr st ~scalars ~iter cond) then then_ else else_ in
      List.iter (exec_stmt ~iter) branch
  in
  for i = 0 to iterations - 1 do
    List.iteri
      (fun pos stmt ->
        match stmt with
        | Ast.Assign { array; offset; rhs } -> record pos i (assign ~iter:i array offset rhs)
        | Ast.If _ -> exec_stmt ~iter:i stmt)
      loop.Ast.body
  done;
  st

let run ?init ?(scalars = default_scalar) loop ~iterations =
  exec_loop ?init ~scalars ~record:(fun _ _ _ -> ()) loop ~iterations

let instance_values loop ~iterations =
  if not (Ast.is_flat loop) then invalid_arg "Interp.instance_values: loop must be flat";
  let values = ref [] in
  let record pos iter v = values := ((pos, iter), v) :: !values in
  ignore (exec_loop ~scalars:default_scalar ~record loop ~iterations);
  List.sort (fun (a, _) (b, _) -> compare a b) !values
