module Program = Mimd_codegen.Program
module Graph = Mimd_ddg.Graph
module Ast = Mimd_loop_ir.Ast
module Interp = Mimd_loop_ir.Interp
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

type cinstr =
  | CCompute of {
      node : int;
      iter : int;
      code : code;
      args : int array;
      dst : int;
    }
  | CSend of { dst : int; tag : int * int; src_slot : int }
  | CSend_pack of {
      dst : int;
      tag : int * int;
      insts : (int * int) array;
      src_slots : int array;
    }
  | CRecv of { src : int; tag : int * int; dst_slot : int }
  | CRecv_pack of {
      src : int;
      tag : int * int;
      insts : (int * int) array;
      dst_slots : int array;
    }

type proc_code = {
  instrs : cinstr array;
  slot_count : int;
  prefill : (string * int * int) array;
  computes : (int * int) array;
  stack_need : int;
}

type t = {
  processors : int;
  procs : proc_code array;
  scalar_names : string array;
}

let check_pair ~loop ~program =
  if not (Ast.is_flat loop) then invalid_arg "Lower: loop must be flat";
  let stmts = Array.of_list (Ast.assignments loop) in
  if Array.length stmts <> Graph.node_count program.Program.graph then
    invalid_arg "Lower: statement/node count mismatch";
  stmts

(* Reaching definition of a reference (array, offset) inside statement
   [t]: which statement produces the value, how many iterations back.
   [None] means the value comes from initial memory.

   Affine refs: writer (s', array, a') produces element [j + b] at
   iteration [j + b - a']; among writers strictly before the reader in
   sequential order, the latest is the one maximising (b - a', s').
   Fixed cells: the latest write before (j, t), i.e. the largest s' < t
   at this iteration, else the largest s' one iteration back. *)
let resolver stmts =
  let writers = Array.to_list (Array.mapi (fun s (array, a, _) -> (s, array, a)) stmts) in
  let resolve t array b =
    if Depend.is_fixed_cell array then begin
      let same_iter =
        List.filter (fun (s', arr', _) -> arr' = array && s' < t) writers
      in
      match List.rev same_iter with
      | (s', _, _) :: _ -> Some (s', 0)
      | [] -> begin
        match List.rev (List.filter (fun (_, arr', _) -> arr' = array) writers) with
        | (s', _, _) :: _ -> Some (s', 1)
        | [] -> None
      end
    end
    else begin
      (* delta = a' - b: reader at iteration j takes the value from
         (s', j - delta); valid when delta > 0, or delta = 0 with
         s' < t. *)
      List.fold_left
        (fun best (s', arr', a') ->
          if arr' <> array then best
          else begin
            let delta = a' - b in
            let valid = delta > 0 || (delta = 0 && s' < t) in
            if not valid then best
            else
              match best with
              | Some (bs, bd) when (-bd, bs) >= (-delta, s') -> best
              | _ -> Some (s', delta)
          end)
        None writers
    end
  in
  resolve

(* Postfix compilation of one statement RHS.  [Load k] refers to the
   k-th reference in {!Ast.reads_of_expr} order — the pre-order leaf
   walk below visits leaves in exactly that order, so the per-instance
   [args] array (resolved slot per read) indexes directly.  Select is
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

let lower_proc ~resolve ~reads ~codes ~(program : Program.t) j =
  let instrs = Array.of_list program.programs.(j) in
  let n = Array.length instrs in
  (* Pass 1: a dense slot for every (node, iter) instance this PE
     defines — Compute destinations and every tag a Recv/Recv_pack
     lands.  The first definition position is kept for the
     def-before-use checks below. *)
  let slot_of : (int * int, int * int) Hashtbl.t = Hashtbl.create (2 * n) in
  let nslots = ref 0 in
  let define key pos =
    if not (Hashtbl.mem slot_of key) then begin
      Hashtbl.replace slot_of key (!nslots, pos);
      incr nslots
    end
  in
  Array.iteri
    (fun pos instr ->
      match instr with
      | Program.Compute { node; iter } -> define (node, iter) pos
      | Program.Recv { tag; _ } -> define (tag.Program.node, tag.Program.iter) pos
      | Program.Recv_pack { tags; _ } ->
        List.iter (fun (t : Program.tag) -> define (t.node, t.iter) pos) tags
      | Program.Send _ | Program.Send_pack _ -> ())
    instrs;
  (* Initial-memory reads become slots prefilled before the first
     instruction; one slot per distinct cell. *)
  let prefills : (string * int, int) Hashtbl.t = Hashtbl.create 16 in
  let prefill_order = ref [] in
  let prefill_slot array idx =
    match Hashtbl.find_opt prefills (array, idx) with
    | Some slot -> slot
    | None ->
      let slot = !nslots in
      incr nslots;
      Hashtbl.replace prefills (array, idx) slot;
      prefill_order := (array, idx, slot) :: !prefill_order;
      slot
  in
  let defined_slot ~before key =
    match Hashtbl.find_opt slot_of key with
    | Some (slot, dpos) when dpos < before -> Some slot
    | Some _ | None -> None
  in
  (* Pass 2: resolve every operand to a slot index, failing loudly on
     a malformed program before anything runs. *)
  let lowered =
    Array.mapi
      (fun pos instr ->
        match instr with
        | Program.Compute { node; iter } ->
          let args =
            Array.map
              (fun (array, offset) ->
                match resolve node array offset with
                | Some (s', delta) when iter - delta >= 0 -> begin
                  match defined_slot ~before:pos (s', iter - delta) with
                  | Some slot -> slot
                  | None ->
                    invalid_arg
                      (Printf.sprintf
                         "Lower: PE%d computing (%d,%d) lacks operand (%d,%d) for %s"
                         j node iter s' (iter - delta) array)
                end
                | Some _ | None ->
                  prefill_slot array (Interp.cell_index array ~iter ~offset))
              reads.(node)
          in
          let dst, _ = Hashtbl.find slot_of (node, iter) in
          CCompute { node; iter; code = codes.(node); args; dst }
        | Program.Send { tag; dst } ->
          let key = (tag.Program.node, tag.Program.iter) in
          (match defined_slot ~before:pos key with
          | Some slot -> CSend { dst; tag = key; src_slot = slot }
          | None -> invalid_arg "Lower: send before compute (malformed program)")
        | Program.Send_pack { tags = (rep :: _) as tags; dst } ->
          let insts =
            Array.of_list
              (List.map (fun (t : Program.tag) -> (t.node, t.iter)) tags)
          in
          let src_slots =
            Array.map
              (fun key ->
                match defined_slot ~before:pos key with
                | Some slot -> slot
                | None ->
                  invalid_arg "Lower: send before compute (malformed program)")
              insts
          in
          CSend_pack
            { dst; tag = (rep.Program.node, rep.Program.iter); insts; src_slots }
        | Program.Recv { tag; src } ->
          let key = (tag.Program.node, tag.Program.iter) in
          let slot, _ = Hashtbl.find slot_of key in
          CRecv { src; tag = key; dst_slot = slot }
        | Program.Recv_pack { tags = (rep :: _) as tags; src } ->
          let insts =
            Array.of_list
              (List.map (fun (t : Program.tag) -> (t.node, t.iter)) tags)
          in
          let dst_slots =
            Array.map (fun key -> fst (Hashtbl.find slot_of key)) insts
          in
          CRecv_pack
            { src; tag = (rep.Program.node, rep.Program.iter); insts; dst_slots }
        | Program.Send_pack { tags = []; _ } | Program.Recv_pack { tags = []; _ }
          ->
          invalid_arg "Lower: empty pack")
      instrs
  in
  let stack_need =
    Array.fold_left
      (fun acc ci ->
        match ci with
        | CCompute { code; _ } -> max acc code.stack_need
        | _ -> acc)
      1 lowered
  in
  {
    instrs = lowered;
    slot_count = max 1 !nslots;
    prefill = Array.of_list (List.rev !prefill_order);
    computes = Array.of_list (Program.computes_of program j);
    stack_need;
  }

let run ~loop ~(program : Program.t) () =
  let stmts = check_pair ~loop ~program in
  let resolve = resolver stmts in
  let reads =
    Array.map (fun (_, _, rhs) -> Array.of_list (Ast.reads_of_expr rhs)) stmts
  in
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
  let procs =
    Array.init program.processors (fun j ->
        lower_proc ~resolve ~reads ~codes ~program j)
  in
  {
    processors = program.processors;
    procs;
    scalar_names = Array.of_list (List.rev !scalar_order);
  }

(* Deliberate corruption for the must-fail differential probe: the
   first Compute that has any operand is redirected to a fresh slot
   that nothing ever writes (slots start as NaN), so the computed
   value goes wrong in a way only the value differential can see.
   The input is left untouched — cached lowered forms stay valid. *)
let sabotage_stale_slot t =
  let planted = ref false in
  let procs =
    Array.map
      (fun pc ->
        if !planted then pc
        else begin
          let poison = pc.slot_count in
          let instrs =
            Array.map
              (fun ci ->
                match ci with
                | CCompute ({ args; _ } as c)
                  when (not !planted) && Array.length args > 0 ->
                  planted := true;
                  let args = Array.copy args in
                  args.(0) <- poison;
                  CCompute { c with args }
                | _ -> ci)
              pc.instrs
          in
          if !planted then { pc with instrs; slot_count = pc.slot_count + 1 }
          else pc
        end)
      t.procs
  in
  if not !planted then
    invalid_arg "Lower.sabotage_stale_slot: no compute with operands";
  { t with procs }
