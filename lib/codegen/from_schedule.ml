module Graph = Mimd_ddg.Graph
module Schedule = Mimd_core.Schedule

exception Invalid_program of string

(* Insertion sort of [a.(0 .. len-1)]: the prefixes are a node's
   degree long, a handful of ints. *)
let sort_prefix a len =
  for i = 1 to len - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

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
  (* have.[k*p + q]: processor q holds instance k; sent.[k*p + q]: the
     producer already sent instance k to q. *)
  let have = Bytes.make (inst_cap * processors) '\000' in
  let sent = Bytes.make (inst_cap * processors) '\000' in
  let programs = Array.make processors [] in
  let emit proc instr = programs.(proc) <- instr :: programs.(proc) in
  (* Per-entry scratch, sized by the largest degree and reused: the
     off-processor operands' instance keys, emitted as Recvs in
     ascending key — the consistent (iter, node) order — and the
     off-processor consumers, sent to in ascending processor. *)
  let max_degree f =
    let m = ref 0 in
    for v = 0 to n - 1 do
      m := max !m (f csr v)
    done;
    !m
  in
  let operands = Array.make (max_degree Graph.in_degree) 0 in
  let consumers = Array.make (max_degree Graph.out_degree) 0 in
  List.iter
    (fun (e : Schedule.entry) ->
      let v = e.inst.node and i = e.inst.iter in
      let n_ops = ref 0 in
      Graph.iter_preds csr v (fun (edge : Graph.edge) ->
          let pi = i - edge.distance in
          if pi >= 0 then begin
            let pp = Schedule.proc_at sched ~node:edge.src ~iter:pi in
            if pp >= 0 && pp <> e.proc then begin
              operands.(!n_ops) <- inst_key ~node:edge.src ~iter:pi;
              incr n_ops
            end
          end);
      sort_prefix operands !n_ops;
      for j = 0 to !n_ops - 1 do
        let key = operands.(j) in
        let k = (key * processors) + e.proc in
        if Bytes.get have k = '\000' then begin
          Bytes.set have k '\001';
          let node = key mod n and iter = key / n in
          emit e.proc
            (Program.Recv { tag = { node; iter }; src = Schedule.proc_at sched ~node ~iter })
        end
      done;
      emit e.proc (Program.Compute { node = v; iter = i });
      Bytes.set have ((inst_key ~node:v ~iter:i * processors) + e.proc) '\001';
      let n_cons = ref 0 in
      Graph.iter_succs csr v (fun (edge : Graph.edge) ->
          let cp = Schedule.proc_at sched ~node:edge.dst ~iter:(i + edge.distance) in
          if cp >= 0 && cp <> e.proc then begin
            consumers.(!n_cons) <- cp;
            incr n_cons
          end);
      sort_prefix consumers !n_cons;
      for j = 0 to !n_cons - 1 do
        let dst = consumers.(j) in
        let k = (inst_key ~node:v ~iter:i * processors) + dst in
        if Bytes.get sent k = '\000' then begin
          Bytes.set sent k '\001';
          emit e.proc (Program.Send { tag = { node = v; iter = i }; dst })
        end
      done)
    entries;
  let p = { Program.graph; processors; programs = Array.map List.rev programs } in
  (if validate then
     match Program.check p with
     | [] -> ()
     | d :: rest ->
       raise
         (Invalid_program
            (Format.asprintf "%a%s" Program.pp_defect d
               (if rest = [] then ""
                else Printf.sprintf " (+%d more defect(s))" (List.length rest)))));
  p
