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
  let machine = Schedule.machine sched in
  let processors = machine.Mimd_machine.Config.processors in
  let entries = Schedule.entries sched in
  (* Every (node, iter) pair is identified by the int iter * n + node
     below, indexing flat arrays of Θ(entries x processors) bytes —
     proportional to the schedule itself.  [proc_of] holds each
     instance's processor, -1 where none is scheduled, so a placement
     is one read of an int array. *)
  let n = Graph.node_count graph in
  let iterations = Schedule.iterations sched in
  let inst_key ~node ~iter = (iter * n) + node in
  let inst_cap = max 1 (n * iterations) in
  let proc_of = Array.make inst_cap (-1) in
  List.iter
    (fun (e : Schedule.entry) ->
      proc_of.(inst_key ~node:e.inst.node ~iter:e.inst.iter) <- e.proc)
    entries;
  (* have.[k*p + q]: processor q holds instance k; sent.[k*p + q]: the
     producer already sent instance k to q. *)
  let have = Bytes.make (inst_cap * processors) '\000' in
  let sent = Bytes.make (inst_cap * processors) '\000' in
  (* One processor's code at a time is written in place into the
     first [len] ints of [buf], which doubles when full, then copied out
     at its exact size: a processor's entries are its own, so its have
     and sent flags are set by it alone and walking the processors one
     after the other emits what a walk over all entries would. *)
  let w = Program.width in
  let most = ref 0 in
  for q = 0 to processors - 1 do
    most := max !most (List.length (Schedule.entries_on sched q))
  done;
  let buf = ref (Array.make (w * ((2 * !most) + 16)) 0) and len = ref 0 in
  let emit kind node iter peer count =
    let at = !len in
    if at + w > Array.length !buf then begin
      let grown = Array.make (2 * Array.length !buf) 0 in
      Array.blit !buf 0 grown 0 at;
      buf := grown
    end;
    let b = !buf in
    b.(at + Program.field_kind) <- kind;
    b.(at + Program.field_node) <- node;
    b.(at + Program.field_iter) <- iter;
    b.(at + Program.field_peer) <- peer;
    b.(at + Program.field_count) <- count;
    len := at + w
  in
  (* The graph's edges as int arrays: node v's predecessors are
     [pred_src]/[pred_dist] from [pred_off.(v)] to [pred_off.(v + 1) - 1],
     its successors likewise. *)
  let flatten adjacent endpoint =
    let off = Array.make (n + 1) 0 in
    for v = 0 to n - 1 do
      off.(v + 1) <- off.(v) + List.length (adjacent graph v)
    done;
    let node = Array.make off.(n) 0 and dist = Array.make off.(n) 0 in
    for v = 0 to n - 1 do
      List.iteri
        (fun j (e : Graph.edge) ->
          node.(off.(v) + j) <- endpoint e;
          dist.(off.(v) + j) <- e.distance)
        (adjacent graph v)
    done;
    (off, node, dist)
  in
  let pred_off, pred_src, pred_dist = flatten Graph.preds (fun e -> e.src) in
  let succ_off, succ_dst, succ_dist = flatten Graph.succs (fun e -> e.dst) in
  (* Per-entry scratch, sized by the largest degree and reused: the
     off-processor operands' instance keys, emitted as Recvs in
     ascending key — the consistent (iter, node) order — and the
     off-processor consumers, sent to in ascending processor. *)
  let max_degree off =
    let m = ref 0 in
    for v = 0 to n - 1 do
      m := max !m (off.(v + 1) - off.(v))
    done;
    !m
  in
  let operands = Array.make (max_degree pred_off) 0 in
  let consumers = Array.make (max_degree succ_off) 0 in
  let walk (e : Schedule.entry) =
    let v = e.inst.node and i = e.inst.iter and p = e.proc in
    let n_ops = ref 0 in
    for j = pred_off.(v) to pred_off.(v + 1) - 1 do
      let pi = i - pred_dist.(j) in
      if pi >= 0 then begin
        let key = inst_key ~node:pred_src.(j) ~iter:pi in
        let pp = proc_of.(key) in
        if pp >= 0 && pp <> p then begin
          operands.(!n_ops) <- key;
          incr n_ops
        end
      end
    done;
    sort_prefix operands !n_ops;
    for j = 0 to !n_ops - 1 do
      let key = operands.(j) in
      let k = (key * processors) + p in
      if Bytes.get have k = '\000' then begin
        Bytes.set have k '\001';
        emit Program.recv (key mod n) (key / n) proc_of.(key) 1
      end
    done;
    let own = inst_key ~node:v ~iter:i in
    emit Program.compute v i (-1) 0;
    Bytes.set have ((own * processors) + p) '\001';
    let n_cons = ref 0 in
    for j = succ_off.(v) to succ_off.(v + 1) - 1 do
      let ci = i + succ_dist.(j) in
      let cp = if ci < iterations then proc_of.(inst_key ~node:succ_dst.(j) ~iter:ci) else -1 in
      if cp >= 0 && cp <> p then begin
        consumers.(!n_cons) <- cp;
        incr n_cons
      end
    done;
    sort_prefix consumers !n_cons;
    for j = 0 to !n_cons - 1 do
      let dst = consumers.(j) in
      let k = (own * processors) + dst in
      if Bytes.get sent k = '\000' then begin
        Bytes.set sent k '\001';
        emit Program.send v i dst 1
      end
    done
  in
  let code =
    Array.init processors (fun q ->
        len := 0;
        List.iter walk (Schedule.entries_on sched q);
        { Program.instrs = Array.sub !buf 0 !len; pool = [||] })
  in
  let p = { Program.graph; processors; code } in
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
