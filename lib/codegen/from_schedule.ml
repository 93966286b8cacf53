module Graph = Mimd_ddg.Graph
module Schedule = Mimd_core.Schedule

exception Invalid_program of string

let validator : (Program.t -> (unit, string) result) ref =
  ref (fun p ->
      match Program.check p with
      | [] -> Ok ()
      | d :: rest ->
        Error
          (Format.asprintf "%a%s" Program.pp_defect d
             (if rest = [] then ""
              else Printf.sprintf " (+%d more defect(s))" (List.length rest))))

let run ?(validate = false) sched =
  Mimd_obs.Trace.span ~cat:"compile" "compile.codegen" @@ fun () ->
  let graph = Schedule.graph sched in
  let csr = Graph.csr graph in
  let machine = Schedule.machine sched in
  let processors = machine.Mimd_machine.Config.processors in
  let entries = Schedule.entries sched in
  (* Every (node, iter) pair is identified by the int iter * n + node
     below, indexing flat byte arrays of Θ(entries x processors) bytes —
     proportional to the schedule itself.  Placements are read from the
     schedule's own dense instance index. *)
  let n = Graph.node_count graph in
  let iterations = Schedule.iterations sched in
  let inst_key ~node ~iter = (iter * n) + node in
  let inst_cap = max 1 (n * iterations) in
  let proc_of ~node ~iter =
    match Schedule.find sched { node; iter } with Some e -> e.proc | None -> -1
  in
  (* have.[k*p + q]: processor q holds instance k; sent.[k*p + q]: the
     producer already sent instance k to q. *)
  let have = Bytes.make (inst_cap * processors) '\000' in
  let sent = Bytes.make (inst_cap * processors) '\000' in
  let programs = Array.make processors [] in
  let emit proc instr = programs.(proc) <- instr :: programs.(proc) in
  List.iter
    (fun (e : Schedule.entry) ->
      let v = e.inst.node and i = e.inst.iter in
      (* Receives for off-processor operands, in the consistent order. *)
      let wanted =
        Graph.fold_preds csr v
          (fun acc (edge : Graph.edge) ->
            let pi = i - edge.distance in
            if pi < 0 then acc
            else
              match proc_of ~node:edge.src ~iter:pi with
              | pp when pp >= 0 && pp <> e.proc -> (pi, edge.src, pp) :: acc
              | _ -> acc)
          []
      in
      List.iter
        (fun (pi, src_node, src_proc) ->
          let k = (inst_key ~node:src_node ~iter:pi * processors) + e.proc in
          if Bytes.get have k = '\000' then begin
            Bytes.set have k '\001';
            emit e.proc (Program.Recv { tag = { node = src_node; iter = pi }; src = src_proc })
          end)
        (List.sort_uniq compare wanted);
      emit e.proc (Program.Compute { node = v; iter = i });
      Bytes.set have ((inst_key ~node:v ~iter:i * processors) + e.proc) '\001';
      (* Sends to every distinct off-processor consumer. *)
      let consumers =
        Graph.fold_succs csr v
          (fun acc (edge : Graph.edge) ->
            let ci = i + edge.distance in
            match proc_of ~node:edge.dst ~iter:ci with
            | cp when cp >= 0 && cp <> e.proc -> cp :: acc
            | _ -> acc)
          []
      in
      List.iter
        (fun dst ->
          let k = (inst_key ~node:v ~iter:i * processors) + dst in
          if Bytes.get sent k = '\000' then begin
            Bytes.set sent k '\001';
            emit e.proc (Program.Send { tag = { node = v; iter = i }; dst })
          end)
        (List.sort_uniq compare consumers))
    entries;
  let p = { Program.graph; processors; programs = Array.map List.rev programs } in
  if validate then begin
    match !validator p with
    | Ok () -> ()
    | Error msg -> raise (Invalid_program msg)
  end;
  p
