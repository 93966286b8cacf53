module Program = Mimd_codegen.Program
module Graph = Mimd_ddg.Graph
module Ast = Mimd_loop_ir.Ast
module Depend = Mimd_loop_ir.Depend

type op =
  | Load of int
  | Const of float
  | Scalar of int
  | Add
  | Sub
  | Mul
  | Div
  | Neg
  | Select

type code = { ops : op array; stack_need : int }

type proc_code = {
  code : Program.code;
  at : int array;
  slots : int array;
  slot_count : int;
  prefill : int array;
  compute_count : int;
  stack_need : int;
}

type t = {
  processors : int;
  procs : proc_code array;
  codes : code array;
  array_names : string array;
  scalar_names : string array;
}

let check_pair ~loop ~program =
  if not (Ast.is_flat loop) then invalid_arg "Lower: loop must be flat";
  let stmts = Array.of_list (Ast.assignments loop) in
  if Array.length stmts <> Graph.node_count program.Program.graph then
    invalid_arg "Lower: statement/node count mismatch";
  stmts

let check_distances graph =
  if Graph.max_distance graph <= 1 then Ok ()
  else
    Error
      "loop needed unwinding (some dependence distance > 1); real execution supports \
       distances in {0, 1} only"

(* Postfix compilation of one statement RHS.  [Load k] refers to the
   k-th reference in {!Ast.reads_of_expr} order — the pre-order leaf
   walk below visits leaves in exactly that order, so a compute's
   operand slots (one per read, after its destination slot) index
   directly.  Select is
   compiled eagerly (predicate and both branches on the stack); the
   expressions are pure and every operand of either branch is delivered
   by codegen (dependences come from [reads_of_expr], which also covers
   the untaken branch), so the chosen branch's value is bit-identical
   to the interpreter's short-circuit walk. *)
let compile_expr ~scalar_id rhs =
  let ops = ref [] in
  let depth = ref 0 and maxd = ref 0 in
  let nloads = ref 0 in
  let push o =
    ops := o :: !ops;
    incr depth;
    if !depth > !maxd then maxd := !depth
  in
  let emit o = ops := o :: !ops in
  let rec go = function
    | Ast.Int k -> push (Const (float_of_int k))
    | Ast.Scalar s -> push (Scalar (scalar_id s))
    | Ast.Ref _ ->
      push (Load !nloads);
      incr nloads
    | Ast.Neg e ->
      go e;
      emit Neg
    | Ast.Binop (op, a, b) ->
      go a;
      go b;
      emit (match op with Ast.Add -> Add | Sub -> Sub | Mul -> Mul | Div -> Div);
      decr depth
    | Ast.Select (p, a, b) ->
      go p;
      go a;
      go b;
      emit Select;
      depth := !depth - 2
  in
  go rhs;
  { ops = Array.of_list (List.rev !ops); stack_need = max 1 !maxd }

(* How each read of one statement finds its value, resolved once per
   statement: read [r] is the value statement [src.(r)] computed
   [dist.(r)] iterations back, or initial memory when [src.(r) < 0] or
   that iteration precedes the run; the cell it names is [(arr.(r),
   iter + offset.(r))], index 0 when [fixed.(r)]. *)
type plan = {
  src : int array;
  dist : int array;
  arr : int array;
  offset : int array;
  fixed : bool array;
}

(* The sizes of one PE's arrays, from a first walk of its program. *)
type sizes = { n_slots : int; n_computes : int; n_memory : int }

(* The window of initial-memory cells read, by array id and cell index. *)
type cells = {
  mutable arr_lo : int;
  mutable arr_hi : int;
  mutable idx_lo : int;
  mutable idx_hi : int;
}

(* Pass 1 over one PE's program: its sizes; every instance it defines
   (Compute destinations and every tag a Recv/Recv_pack lands) goes to
   [see], and every initial-memory cell it reads widens [cells]. *)
let measure ~plans ~cells ~see (c : Program.code) =
  let ins = c.instrs and tail = c.pool in
  let n_slots = ref 0 and n_computes = ref 0 and n_memory = ref 0 in
  for k = 0 to Program.length c - 1 do
    let b = k * Program.width in
    let kind = ins.(b + Program.field_kind) in
    let node = ins.(b + Program.field_node) and iter = ins.(b + Program.field_iter) in
    let count = ins.(b + Program.field_count) in
    if kind = Program.compute then begin
      see node iter;
      incr n_computes;
      let p = plans.(node) in
      let nr = Array.length p.src in
      n_slots := !n_slots + 1 + nr;
      for r = 0 to nr - 1 do
        if p.src.(r) < 0 || iter - p.dist.(r) < 0 then begin
          incr n_memory;
          let a = p.arr.(r) and idx = if p.fixed.(r) then 0 else iter + p.offset.(r) in
          if a < cells.arr_lo then cells.arr_lo <- a;
          if a > cells.arr_hi then cells.arr_hi <- a;
          if idx < cells.idx_lo then cells.idx_lo <- idx;
          if idx > cells.idx_hi then cells.idx_hi <- idx
        end
      done
    end
    else begin
      n_slots := !n_slots + count;
      (* a Recv or a Recv_pack lands every tag it carries *)
      if (kind = Program.recv || kind = Program.recv_pack) && count > 0 then begin
        see node iter;
        let at = ins.(b + Program.field_at) in
        for i = 0 to count - 2 do
          see tail.(at + (2 * i)) tail.(at + (2 * i) + 1)
        done
      end
    end
  done;
  { n_slots = !n_slots; n_computes = !n_computes; n_memory = !n_memory }

(* Pass 2: PE [j]'s slots in one walk of its program, resolving every
   operand to a slot and failing loudly on a malformed program before
   anything runs.  [slot_at] (by instance key) and [prefill_at] (by
   cell key) are shared by every PE and hold -1 between PEs: each PE
   clears what it set. *)
let lower_proc ~plans ~(codes : code array) ~array_names ~keys ~slot_at ~cells ~prefill_at sz
    (prog : Program.code) j =
  let key node iter = Program.Keys.key keys ~node ~iter in
  let narr = cells.arr_hi - cells.arr_lo + 1 in
  let cell_key a idx = ((idx - cells.idx_lo) * narr) + (a - cells.arr_lo) in
  let n = Program.length prog in
  let at = Array.make n 0 in
  let slots = Array.make sz.n_slots 0 in
  let prefill = Array.make (3 * min sz.n_memory (Array.length prefill_at)) 0 in
  let nslots = ref 0 and nprefill = ref 0 in
  let top = ref 0 and stack_need = ref 1 in
  (* A dense slot for every instance this PE defines, in order of first
     definition.  An instruction's reads resolve before its own
     definitions, so a slot defined at position [pos] is read from
     [pos + 1] on: [slot_at] holds exactly the instances defined so
     far. *)
  let define node iter =
    let k = key node iter in
    if slot_at.(k) < 0 then begin
      slot_at.(k) <- !nslots;
      incr nslots
    end;
    slot_at.(k)
  in
  let defined_slot node iter =
    let k = key node iter in
    if k < 0 then -1 else slot_at.(k)
  in
  let sent_slot node iter =
    let slot = defined_slot node iter in
    if slot < 0 then invalid_arg "Lower: send before compute (malformed program)";
    slot
  in
  (* Initial-memory reads become slots prefilled before the first
     instruction: one slot per distinct cell, at its first read. *)
  let prefill_slot a idx =
    let k = cell_key a idx in
    if prefill_at.(k) >= 0 then prefill_at.(k)
    else begin
      let slot = !nslots in
      incr nslots;
      prefill_at.(k) <- slot;
      let f = 3 * !nprefill in
      prefill.(f) <- a;
      prefill.(f + 1) <- idx;
      prefill.(f + 2) <- slot;
      incr nprefill;
      slot
    end
  in
  let ins = prog.instrs and tail = prog.pool in
  for pos = 0 to n - 1 do
    let b = pos * Program.width in
    let kind = ins.(b + Program.field_kind) in
    let node = ins.(b + Program.field_node) and iter = ins.(b + Program.field_iter) in
    let count = ins.(b + Program.field_count) and rest = ins.(b + Program.field_at) in
    at.(pos) <- !top;
    if kind = Program.compute then begin
      let p = plans.(node) in
      let nr = Array.length p.src and ops = !top + 1 in
      for r = 0 to nr - 1 do
        let s = p.src.(r) and back = iter - p.dist.(r) in
        slots.(ops + r) <-
          (if s >= 0 && back >= 0 then begin
             let slot = defined_slot s back in
             if slot < 0 then
               invalid_arg
                 (Printf.sprintf "Lower: PE%d computing (%d,%d) lacks operand (%d,%d) for %s" j
                    node iter s back array_names.(p.arr.(r)));
             slot
           end
           else prefill_slot p.arr.(r) (if p.fixed.(r) then 0 else iter + p.offset.(r)))
      done;
      slots.(!top) <- define node iter;
      top := ops + nr;
      let need = codes.(node).stack_need in
      if need > !stack_need then stack_need := need
    end
    else if count = 0 then invalid_arg "Lower: empty pack"
    else begin
      (* A send's source slots, or a recv's landing slots, head first. *)
      let slot = if kind = Program.send || kind = Program.send_pack then sent_slot else define in
      slots.(!top) <- slot node iter;
      for i = 1 to count - 1 do
        slots.(!top + i) <- slot tail.(rest + (2 * i) - 2) tail.(rest + (2 * i) - 1)
      done;
      top := !top + count
    end
  done;
  (* Leave the shared tables as they were found, for the next PE. *)
  for pos = 0 to n - 1 do
    let b = pos * Program.width in
    let kind = ins.(b + Program.field_kind) in
    if kind = Program.compute || kind = Program.recv || kind = Program.recv_pack then begin
      slot_at.(key ins.(b + Program.field_node) ins.(b + Program.field_iter)) <- -1;
      let rest = ins.(b + Program.field_at) in
      for i = 1 to ins.(b + Program.field_count) - 1 do
        slot_at.(key tail.(rest + (2 * i) - 2) tail.(rest + (2 * i) - 1)) <- -1
      done
    end
  done;
  for f = 0 to !nprefill - 1 do
    prefill_at.(cell_key prefill.(3 * f) prefill.((3 * f) + 1)) <- -1
  done;
  {
    code = prog;
    at;
    slots;
    slot_count = max 1 !nslots;
    prefill =
      (if 3 * !nprefill = Array.length prefill then prefill
       else Array.sub prefill 0 (3 * !nprefill));
    compute_count = sz.n_computes;
    stack_need = !stack_need;
  }

let run ~loop ~(program : Program.t) () =
  let stmts = check_pair ~loop ~program in
  let reads =
    Array.map (fun (_, _, rhs) -> Array.of_list (Ast.reads_of_expr rhs)) stmts
  in
  (* Arrays by dense id, so a prefilled cell is keyed by two ints. *)
  let array_ids : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let array_order = ref [] in
  let array_id array =
    match Hashtbl.find_opt array_ids array with
    | Some a -> a
    | None ->
      let a = Hashtbl.length array_ids in
      Hashtbl.replace array_ids array a;
      array_order := array :: !array_order;
      a
  in
  let plans =
    Array.map
      (fun r ->
        {
          src = Array.make (Array.length r) (-1);
          dist = Array.make (Array.length r) 0;
          arr = Array.map (fun (array, _) -> array_id array) r;
          offset = Array.map snd r;
          fixed = Array.map (fun (array, _) -> Depend.is_fixed_cell array) r;
        })
      reads
  in
  (* The source of read [k] of statement [t]: among the flow
     dependences into [(t, k)], the least distance, ties to the latest
     statement — the last write before the read in sequential order. *)
  List.iter
    (fun (d : Depend.dep) ->
      match (d.kind, d.read) with
      | Depend.Flow, Some k ->
        let p = plans.(d.dst_stmt) in
        let s' = p.src.(k) and delta = p.dist.(k) in
        if not (s' >= 0 && (delta < d.distance || (delta = d.distance && s' > d.src_stmt)))
        then begin
          p.src.(k) <- d.src_stmt;
          p.dist.(k) <- d.distance
        end
      | _ -> ())
    (Depend.deps loop);
  let scalar_ids : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let scalar_order = ref [] in
  let scalar_id s =
    match Hashtbl.find_opt scalar_ids s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length scalar_ids in
      Hashtbl.replace scalar_ids s i;
      scalar_order := s :: !scalar_order;
      i
  in
  let codes = Array.map (fun (_, _, rhs) -> compile_expr ~scalar_id rhs) stmts in
  let array_names = Array.of_list (List.rev !array_order) in
  let p = program.processors in
  let cells = { arr_lo = max_int; arr_hi = min_int; idx_lo = max_int; idx_hi = min_int } in
  let sizes = Array.make p { n_slots = 0; n_computes = 0; n_memory = 0 } in
  let keys =
    Program.Keys.scan (fun see ->
        for j = 0 to p - 1 do
          sizes.(j) <- measure ~plans ~cells ~see program.code.(j)
        done)
  in
  let slot_at = Array.make (Program.Keys.size keys) (-1) in
  let prefill_at =
    Array.make
      (if cells.arr_lo > cells.arr_hi then 0
       else (cells.arr_hi - cells.arr_lo + 1) * (cells.idx_hi - cells.idx_lo + 1))
      (-1)
  in
  let procs =
    Array.init p (fun j ->
        lower_proc ~plans ~codes ~array_names ~keys ~slot_at ~cells ~prefill_at sizes.(j)
          program.code.(j) j)
  in
  {
    processors = program.processors;
    procs;
    codes;
    array_names;
    scalar_names = Array.of_list (List.rev !scalar_order);
  }

let check_form ~caller t ~(program : Program.t) =
  let same pc (c : Program.code) = pc.code == c || pc.code = c in
  if
    not
      (t.processors = program.processors
      && Array.length t.procs = Array.length program.code
      && Array.for_all2 same t.procs program.code)
  then invalid_arg (caller ^ ": lowered form is for another program")

(* Deliberate corruption for the must-fail differential probe: the
   first Compute that has any operand has its first operand redirected
   to a fresh slot that nothing ever writes (slots start as NaN), so
   the computed value goes wrong in a way only the value differential
   can see.  The input is left untouched — cached lowered forms stay
   valid. *)
let sabotage_stale_slot t =
  let reads node = Array.exists (function Load _ -> true | _ -> false) t.codes.(node).ops in
  let first_read pc =
    let ins = pc.code.Program.instrs in
    let rec find k =
      if k = Program.length pc.code then -1
      else
        let b = k * Program.width in
        if ins.(b + Program.field_kind) = Program.compute && reads ins.(b + Program.field_node)
        then pc.at.(k) + 1
        else find (k + 1)
    in
    find 0
  in
  let planted = ref false in
  let procs =
    Array.map
      (fun pc ->
        if !planted then pc
        else
          match first_read pc with
          | -1 -> pc
          | e ->
            planted := true;
            let slots = Array.copy pc.slots in
            slots.(e) <- pc.slot_count;
            { pc with slots; slot_count = pc.slot_count + 1 })
      t.procs
  in
  if not !planted then
    invalid_arg "Lower.sabotage_stale_slot: no compute with operands";
  { t with procs }
