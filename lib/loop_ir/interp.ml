(* Deterministic pseudo-values in [1, 2): never zero, so divisions stay
   finite and value comparisons are exact across runs. *)
let hashed_unit_float h = 1.0 +. (float_of_int (h land 0xFFFF) /. 65536.0)
let init name index = hashed_unit_float (Hashtbl.hash (name, index))
let default_scalar name = hashed_unit_float (Hashtbl.hash name)

let cell_index array ~iter ~offset = if Depend.is_fixed_cell array then 0 else iter + offset

(* One dense table per array the loop writes: cell [lo + j] is
   [data.(j)], and has been written when byte [j] of [written] is
   non-zero. *)
type table = { name : string; lo : int; data : float array; written : Bytes.t }

(* [tables] is in ascending name order, so [written_cells] reads its
   output off in order; an array id is an index into it, -1 for an
   array the loop never writes. *)
type store = { tables : table array; initial : string -> int -> float }

(* Every cell an assignment can write over [iterations] iterations,
   both branches of every [If] included: [offset, iterations-1+offset]
   per affine write, index 0 for a fixed cell. *)
let create ?(init = init) (loop : Ast.loop) ~iterations =
  let ranges = Hashtbl.create 8 in
  let rec note = function
    | Ast.Assign { array; offset; _ } ->
      let lo = cell_index array ~iter:0 ~offset
      and hi = cell_index array ~iter:(iterations - 1) ~offset in
      let lo, hi =
        match Hashtbl.find_opt ranges array with
        | Some (lo', hi') -> (min lo lo', max hi hi')
        | None -> (lo, hi)
      in
      Hashtbl.replace ranges array (lo, hi)
    | Ast.If { then_; else_; _ } ->
      List.iter note then_;
      List.iter note else_
  in
  List.iter note loop.Ast.body;
  let tables =
    Hashtbl.fold (fun name range acc -> (name, range) :: acc) ranges []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (name, (lo, hi)) ->
           let len = max 0 (hi - lo + 1) in
           { name; lo; data = Array.make len 0.0; written = Bytes.make len '\000' })
    |> Array.of_list
  in
  { tables; initial = init }

let table_id st name =
  let rec find t =
    if t = Array.length st.tables then -1
    else if String.equal st.tables.(t).name name then t
    else find (t + 1)
  in
  find 0

let[@inline] get st t name index =
  if t < 0 then st.initial name index
  else
    let tb = st.tables.(t) in
    let j = index - tb.lo in
    if j >= 0 && j < Array.length tb.data && Bytes.unsafe_get tb.written j <> '\000' then
      Array.unsafe_get tb.data j
    else st.initial name index

let[@inline] set st t index v =
  let tb = st.tables.(t) in
  let j = index - tb.lo in
  tb.data.(j) <- v;
  Bytes.set tb.written j '\001'

let read st name index = get st (table_id st name) name index

let written_cells st =
  let out = ref [] in
  for t = Array.length st.tables - 1 downto 0 do
    let { name; lo; data; written } = st.tables.(t) in
    for j = Array.length data - 1 downto 0 do
      if Bytes.unsafe_get written j <> '\000' then out := (name, lo + j, data.(j)) :: !out
    done
  done;
  !out

let written_count st =
  Array.fold_left
    (fun n { written; _ } ->
      let c = ref n in
      Bytes.iter (fun b -> if b <> '\000' then incr c) written;
      !c)
    0 st.tables

(* [=] at type int64 compares unboxed: no allocation. *)
let same_bits a b = Int64.bits_of_float a = Int64.bits_of_float b

type difference =
  | Cell_count of int * int
  | Cell of (string * int) * (string * int)
  | Value of string * int * float * float

(* A position in a store's written cells, in [written_cells] order:
   table [t], offset [j]; [t] past the last table at the end. *)
type cursor = { cells : table array; mutable t : int; mutable j : int }

(* Move to the first written cell at or after the current position. *)
let rec settle c =
  if c.t < Array.length c.cells then begin
    let tb = c.cells.(c.t) in
    if c.j = Array.length tb.data then begin
      c.t <- c.t + 1;
      c.j <- 0;
      settle c
    end
    else if Bytes.unsafe_get tb.written c.j = '\000' then begin
      c.j <- c.j + 1;
      settle c
    end
  end

let first_difference a b =
  let na = written_count a and nb = written_count b in
  if na <> nb then Some (Cell_count (na, nb))
  else begin
    (* Equal counts: both cursors run out together. *)
    let ca = { cells = a.tables; t = 0; j = 0 } and cb = { cells = b.tables; t = 0; j = 0 } in
    let rec walk () =
      settle ca;
      settle cb;
      if ca.t = Array.length a.tables then None
      else begin
        let x = a.tables.(ca.t) and y = b.tables.(cb.t) in
        let ia = x.lo + ca.j and ib = y.lo + cb.j in
        let va = x.data.(ca.j) and vb = y.data.(cb.j) in
        if not (String.equal x.name y.name && ia = ib) then Some (Cell ((x.name, ia), (y.name, ib)))
        else if not (same_bits va vb) then Some (Value (x.name, ia, va, vb))
        else begin
          ca.j <- ca.j + 1;
          cb.j <- cb.j + 1;
          walk ()
        end
      end
    in
    walk ()
  end

(* The loop body with array names resolved to table ids, fixed cells
   flagged and scalars bound, once per run. *)
type expr =
  | Const of float
  | Ref of { table : int; name : string; fixed : bool; offset : int }
  | Neg of expr
  | Binop of Ast.binop * expr * expr
  | Select of expr * expr * expr

type stmt =
  | Assign of { table : int; fixed : bool; offset : int; rhs : expr }
  | If of { cond : expr; then_ : stmt list; else_ : stmt list }

let rec resolve_expr st : Ast.expr -> expr = function
  | Ast.Int k -> Const (float_of_int k)
  | Ast.Scalar s -> Const (default_scalar s)
  | Ast.Ref { array; offset } ->
    Ref { table = table_id st array; name = array; fixed = Depend.is_fixed_cell array; offset }
  | Ast.Neg e -> Neg (resolve_expr st e)
  | Ast.Binop (op, a, b) -> Binop (op, resolve_expr st a, resolve_expr st b)
  | Ast.Select (p, a, b) -> Select (resolve_expr st p, resolve_expr st a, resolve_expr st b)

let rec resolve_stmt st : Ast.stmt -> stmt = function
  | Ast.Assign { array; offset; rhs } ->
    Assign
      {
        table = table_id st array;
        fixed = Depend.is_fixed_cell array;
        offset;
        rhs = resolve_expr st rhs;
      }
  | Ast.If { cond; then_; else_ } ->
    If
      {
        cond = resolve_expr st cond;
        then_ = List.map (resolve_stmt st) then_;
        else_ = List.map (resolve_stmt st) else_;
      }

let truthy v = v > 0.0

let rec eval st ~iter = function
  | Const c -> c
  | Ref { table; name; fixed; offset } -> get st table name (if fixed then 0 else iter + offset)
  | Neg e -> -.eval st ~iter e
  | Binop (op, a, b) -> (
    let va = eval st ~iter a and vb = eval st ~iter b in
    match op with
    | Ast.Add -> va +. vb
    | Ast.Sub -> va -. vb
    | Ast.Mul -> va *. vb
    | Ast.Div -> va /. vb)
  | Select (p, a, b) -> if truthy (eval st ~iter p) then eval st ~iter a else eval st ~iter b

(* One sequential walk.  With [values], a flat body's top-level
   assignment at body position [pos] leaves its value at
   [values.((pos * iterations) + iter)]. *)
let exec_loop ?values ~init (loop : Ast.loop) ~iterations =
  if iterations < 0 then invalid_arg "Interp.run: negative iterations";
  let st = create ~init loop ~iterations in
  let body = Array.of_list (List.map (resolve_stmt st) loop.Ast.body) in
  let[@inline] assign ~iter table fixed offset rhs =
    let v = eval st ~iter rhs in
    set st table (if fixed then 0 else iter + offset) v;
    v
  in
  let rec exec ~iter = function
    | Assign { table; fixed; offset; rhs } -> ignore (assign ~iter table fixed offset rhs)
    | If { cond; then_; else_ } ->
      List.iter (exec ~iter) (if truthy (eval st ~iter cond) then then_ else else_)
  in
  for iter = 0 to iterations - 1 do
    for pos = 0 to Array.length body - 1 do
      match body.(pos) with
      | Assign { table; fixed; offset; rhs } -> (
        let v = assign ~iter table fixed offset rhs in
        match values with Some values -> values.((pos * iterations) + iter) <- v | None -> ())
      | If _ as s -> exec ~iter s
    done
  done;
  st

let run ?(init = init) loop ~iterations = exec_loop ~init loop ~iterations

let of_instances loop ~iterations ~values ~present =
  let stmts = Array.of_list (Ast.assignments loop) in
  let nodes = Array.length stmts in
  if Array.length values <> nodes * iterations || Bytes.length present <> nodes * iterations then
    invalid_arg "Interp.of_instances: table size is not statements x iterations";
  let st = create loop ~iterations in
  (* Node [n] writes cell [base.(n) + step.(n) * iter] of table
     [ids.(n)]: {!cell_index}, resolved once per node. *)
  let ids = Array.map (fun (array, _, _) -> table_id st array) stmts in
  let base = Array.map (fun (array, offset, _) -> cell_index array ~iter:0 ~offset) stmts in
  let step =
    Array.mapi (fun n (array, offset, _) -> cell_index array ~iter:1 ~offset - base.(n)) stmts
  in
  for iter = 0 to iterations - 1 do
    for node = 0 to nodes - 1 do
      let ix = (node * iterations) + iter in
      if Bytes.get present ix <> '\000' then
        set st ids.(node) (base.(node) + (step.(node) * iter)) values.(ix)
    done
  done;
  st

let instance_table loop ~iterations =
  if not (Ast.is_flat loop) then invalid_arg "Interp.instance_table: loop must be flat";
  let values = Array.make (List.length loop.Ast.body * max 0 iterations) 0.0 in
  ignore (exec_loop ~values ~init loop ~iterations);
  values

let instance_values loop ~iterations =
  let values = instance_table loop ~iterations in
  let out = ref [] in
  for ix = Array.length values - 1 downto 0 do
    out := ((ix / iterations, ix mod iterations), values.(ix)) :: !out
  done;
  !out
