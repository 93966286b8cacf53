module Program = Mimd_codegen.Program
module Graph = Mimd_ddg.Graph
module Ast = Mimd_loop_ir.Ast
module Depend = Mimd_loop_ir.Depend
module Interp = Mimd_loop_ir.Interp

type outcome = {
  timing : Exec.outcome;
  instance_values : ((int * int) * float) list;
  final : (string * int * float) list;
}

type proc_state = { mutable time : int; mutable todo : Program.instr list }

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

let run ?(init = Interp.init) ?(scalars = Interp.default_scalar) ~loop ~program ~links () =
  if not (Ast.is_flat loop) then invalid_arg "Value_exec.run: loop must be flat";
  let stmts = Array.of_list (Ast.assignments loop) in
  let graph = program.Program.graph in
  if Array.length stmts <> Graph.node_count graph then
    invalid_arg "Value_exec.run: statement/node count mismatch";
  let resolve = resolver stmts in
  let p = program.Program.processors in
  let procs = Array.map (fun prog -> { time = 0; todo = prog }) program.Program.programs in
  (* Dataflow semantics: every produced value is named by its instance;
     each processor holds the instances it computed or received.  This
     mirrors value-passing codegen (registers/messages, no shared
     memory) and cannot suffer stale-cell aliasing. *)
  let locals : (int * int, float) Hashtbl.t array = Array.init p (fun _ -> Hashtbl.create 256) in
  (* A mailbox entry is one frame: its arrival cycle plus every
     (instance, value) pair it carries — a plain Send carries one, a
     Send_pack several (coalesced members and forwarded extras).  The
     key is the frame's head tag. *)
  let mailbox : (int * int * int * int, int * ((int * int) * float) array) Hashtbl.t =
    Hashtbl.create 1024
  in
  let values : (int * int, float) Hashtbl.t = Hashtbl.create 1024 in
  let messages = ref 0 and comm_cycles = ref 0 and busy_cycles = ref 0 in
  let initial_of array ~iter ~offset =
    init array (Interp.cell_index array ~iter ~offset)
  in
  let advance j =
    let st = procs.(j) in
    let local = locals.(j) in
    let progressed = ref false in
    let blocked = ref false in
    while (not !blocked) && st.todo <> [] do
      match st.todo with
      | [] -> ()
      | instr :: rest -> begin
        match instr with
        | Program.Compute { node; iter } ->
          let _, _, rhs = stmts.(node) in
          let read array offset =
            match resolve node array offset with
            | Some (s', delta) when iter - delta >= 0 -> begin
              match Hashtbl.find_opt local (s', iter - delta) with
              | Some v -> v
              | None ->
                (* A missing operand is a codegen bug; reading initial
                   memory here would mask it, so fail loudly. *)
                invalid_arg
                  (Printf.sprintf
                     "Value_exec: PE%d computing (%d,%d) lacks operand (%d,%d) for %s" j
                     node iter s' (iter - delta) array)
            end
            | Some _ | None -> initial_of array ~iter ~offset
          in
          let v = Interp.eval_expr_with ~read ~scalars rhs in
          Hashtbl.replace local (node, iter) v;
          Hashtbl.replace values (node, iter) v;
          st.time <- st.time + Graph.latency graph node;
          busy_cycles := !busy_cycles + Graph.latency graph node;
          st.todo <- rest;
          progressed := true
        | Program.Send { tag; dst } | Program.Send_pack { tags = tag :: _; dst }
          ->
          let tags =
            match instr with Program.Send_pack { tags; _ } -> tags | _ -> [ tag ]
          in
          let l = Links.sample links ~src:j ~dst in
          let payload =
            Array.of_list
              (List.map
                 (fun (t : Program.tag) ->
                   match Hashtbl.find_opt local (t.node, t.iter) with
                   | Some v -> ((t.node, t.iter), v)
                   | None ->
                     invalid_arg
                       "Value_exec: send before compute (malformed program)")
                 tags)
          in
          Hashtbl.replace mailbox
            (tag.Program.node, tag.Program.iter, j, dst)
            (st.time + l, payload);
          incr messages;
          comm_cycles := !comm_cycles + l;
          st.todo <- rest;
          progressed := true
        | Program.Recv { tag; src } | Program.Recv_pack { tags = tag :: _; src }
          -> begin
          match Hashtbl.find_opt mailbox (tag.Program.node, tag.Program.iter, src, j) with
          | Some (arrival, payload) ->
            Hashtbl.remove mailbox (tag.Program.node, tag.Program.iter, src, j);
            st.time <- max st.time arrival;
            Array.iter (fun (inst, v) -> Hashtbl.replace local inst v) payload;
            st.todo <- rest;
            progressed := true
          | None -> blocked := true
        end
        | Program.Send_pack { tags = []; _ } | Program.Recv_pack { tags = []; _ }
          ->
          invalid_arg "Value_exec: empty pack"
      end
    done;
    !progressed
  in
  let all_done () = Array.for_all (fun st -> st.todo = []) procs in
  while not (all_done ()) do
    let any = ref false in
    for j = 0 to p - 1 do
      if advance j then any := true
    done;
    if (not !any) && not (all_done ()) then
      raise (Exec.Deadlock "value execution blocked with work remaining")
  done;
  let proc_finish = Array.map (fun st -> st.time) procs in
  let instance_values, final = settle stmts values in
  {
    timing =
      {
        Exec.makespan = Array.fold_left max 0 proc_finish;
        proc_finish;
        messages = !messages;
        comm_cycles = !comm_cycles;
        busy_cycles = !busy_cycles;
        trace = [];
      };
    instance_values;
    final;
  }

let check_final ?init ?scalars ~loop ~iterations ~final () =
  let reference = Interp.run ?init ?scalars loop ~iterations in
  let expected = Interp.written_cells reference in
  let got = final in
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
        else if Int64.bits_of_float v1 <> Int64.bits_of_float v2 then
          Error
            (Printf.sprintf "value mismatch at %s[%d]: sequential %.17g, parallel %.17g" a1 i1
               v1 v2)
        else compare_cells (r1, r2)
      | _ -> Error "cell list length mismatch"
    in
    compare_cells (expected, got)
  end

let check_against_sequential ?init ?scalars ~loop ~iterations outcome =
  check_final ?init ?scalars ~loop ~iterations ~final:outcome.final ()
