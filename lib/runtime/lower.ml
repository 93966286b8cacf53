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

let check_distances graph =
  if Graph.max_distance graph <= 1 then Ok ()
  else
    Error
      "loop needed unwinding (some dependence distance > 1); real execution supports \
       distances in {0, 1} only"

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

let lower_proc ~sources ~reads ~read_arrays ~codes ~(program : Program.t) j =
  let instrs = Array.of_list program.programs.(j) in
  (* Pass 1: a dense slot for every (node, iter) instance this PE
     defines — Compute destinations and every tag a Recv/Recv_pack
     lands.  [slot_at] and [def_at] are indexed by the instance's key
     over the window those definitions span; [def_at] keeps the first
     definition's position for the def-before-use checks below. *)
  let each_def f =
    Array.iteri
      (fun pos instr ->
        match instr with
        | Program.Compute { node; iter } -> f node iter pos
        | Program.Recv { tag; _ } -> f tag.Program.node tag.Program.iter pos
        | Program.Recv_pack { tags; _ } ->
          List.iter (fun (t : Program.tag) -> f t.node t.iter pos) tags
        | Program.Send _ | Program.Send_pack _ -> ())
      instrs
  in
  let keys = Program.Keys.scan (fun see -> each_def (fun node iter _ -> see node iter)) in
  let key node iter = Program.Keys.key keys ~node ~iter in
  let slot_at = Array.make (Program.Keys.size keys) (-1) in
  let def_at = Array.make (Program.Keys.size keys) 0 in
  let nslots = ref 0 in
  each_def (fun node iter pos ->
      let k = key node iter in
      if slot_at.(k) < 0 then begin
        slot_at.(k) <- !nslots;
        def_at.(k) <- pos;
        incr nslots
      end);
  (* Initial-memory reads become slots prefilled before the first
     instruction; one slot per distinct cell.  A cell is keyed by
     (array id, cell index) over the cells this PE reads, the same way. *)
  let from_memory node iter r =
    match sources.(node).(r) with Some (_, delta) -> iter - delta < 0 | None -> true
  in
  let cells =
    Program.Keys.scan (fun see ->
        Array.iter
          (function
            | Program.Compute { node; iter } ->
              Array.iteri
                (fun r (array, offset) ->
                  if from_memory node iter r then
                    see read_arrays.(node).(r) (Interp.cell_index array ~iter ~offset))
                reads.(node)
            | Program.Send _ | Program.Send_pack _ | Program.Recv _ | Program.Recv_pack _ -> ())
          instrs)
  in
  let prefill_at = Array.make (Program.Keys.size cells) (-1) in
  let prefill_order = ref [] in
  let prefill_slot ~node ~r array idx =
    let k = Program.Keys.key cells ~node:read_arrays.(node).(r) ~iter:idx in
    if prefill_at.(k) >= 0 then prefill_at.(k)
    else begin
      let slot = !nslots in
      incr nslots;
      prefill_at.(k) <- slot;
      prefill_order := (array, idx, slot) :: !prefill_order;
      slot
    end
  in
  (* The slot of (node, iter) if this PE defines it before [before],
     else -1. *)
  let defined_slot ~before node iter =
    let k = key node iter in
    if k >= 0 && slot_at.(k) >= 0 && def_at.(k) < before then slot_at.(k) else -1
  in
  let sent_slot ~before (node, iter) =
    let slot = defined_slot ~before node iter in
    if slot < 0 then invalid_arg "Lower: send before compute (malformed program)";
    slot
  in
  (* Pass 2: resolve every operand to a slot index, failing loudly on
     a malformed program before anything runs. *)
  let lowered =
    Array.mapi
      (fun pos instr ->
        match instr with
        | Program.Compute { node; iter } ->
          let args =
            Array.mapi
              (fun r (array, offset) ->
                match sources.(node).(r) with
                | Some (s', delta) when iter - delta >= 0 ->
                  let slot = defined_slot ~before:pos s' (iter - delta) in
                  if slot < 0 then
                    invalid_arg
                      (Printf.sprintf
                         "Lower: PE%d computing (%d,%d) lacks operand (%d,%d) for %s"
                         j node iter s' (iter - delta) array);
                  slot
                | Some _ | None ->
                  prefill_slot ~node ~r array (Interp.cell_index array ~iter ~offset))
              reads.(node)
          in
          CCompute { node; iter; code = codes.(node); args; dst = slot_at.(key node iter) }
        | Program.Send { tag = { node; iter }; dst } ->
          let slot = sent_slot ~before:pos (node, iter) in
          CSend { dst; tag = (node, iter); src_slot = slot }
        | Program.Send_pack { tags = (rep :: _) as tags; dst } ->
          let insts =
            Array.of_list
              (List.map (fun (t : Program.tag) -> (t.node, t.iter)) tags)
          in
          let src_slots = Array.map (sent_slot ~before:pos) insts in
          CSend_pack
            { dst; tag = (rep.Program.node, rep.Program.iter); insts; src_slots }
        | Program.Recv { tag = { node; iter }; src } ->
          CRecv { src; tag = (node, iter); dst_slot = slot_at.(key node iter) }
        | Program.Recv_pack { tags = (rep :: _) as tags; src } ->
          let insts =
            Array.of_list
              (List.map (fun (t : Program.tag) -> (t.node, t.iter)) tags)
          in
          let dst_slots = Array.map (fun (node, iter) -> slot_at.(key node iter)) insts in
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
  let reads =
    Array.map (fun (_, _, rhs) -> Array.of_list (Ast.reads_of_expr rhs)) stmts
  in
  (* The source of read [k] of statement [t], [Some (s, delta)] for the
     value statement [s] computed [delta] iterations back, [None] for
     initial memory: among the flow dependences into [(t, k)], the
     least distance, ties to the latest statement — the last write
     before the read in sequential order.  It depends only on the
     statement, so it is found once rather than once per instance. *)
  let sources = Array.map (fun r -> Array.make (Array.length r) None) reads in
  List.iter
    (fun (d : Depend.dep) ->
      match (d.kind, d.read) with
      | Depend.Flow, Some k -> (
        let s = d.src_stmt and t = d.dst_stmt in
        match sources.(t).(k) with
        | Some (s', delta) when delta < d.distance || (delta = d.distance && s' > s) -> ()
        | _ -> sources.(t).(k) <- Some (s, d.distance))
      | _ -> ())
    (Depend.deps loop);
  (* Arrays by dense id, so a prefilled cell is keyed by two ints. *)
  let array_ids : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let read_arrays =
    Array.map
      (Array.map (fun (array, _) ->
           match Hashtbl.find_opt array_ids array with
           | Some a -> a
           | None ->
             let a = Hashtbl.length array_ids in
             Hashtbl.replace array_ids array a;
             a))
      reads
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
        lower_proc ~sources ~reads ~read_arrays ~codes ~program j)
  in
  {
    processors = program.processors;
    procs;
    scalar_names = Array.of_list (List.rev !scalar_order);
  }

let computes t = Array.map (fun pc -> pc.computes) t.procs

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
