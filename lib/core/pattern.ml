module Graph = Mimd_ddg.Graph

type t = {
  graph : Graph.t;
  machine : Mimd_machine.Config.t;
  prologue : Schedule.entry list;
  body : Schedule.entry list;
  window_start : int;
  height : int;
  iter_shift : int;
}

let rate t = float_of_int t.height /. float_of_int t.iter_shift
let nodes_per_repetition t = List.length t.body

let expand_entries t ~iterations =
  if iterations <= 0 then invalid_arg "Pattern.expand: iterations <= 0";
  let entries = ref [] in
  let add (e : Schedule.entry) =
    if e.inst.iter < iterations then entries := e :: !entries
  in
  List.iter add t.prologue;
  (* Iterations covered by repetition r grow by iter_shift each time;
     stop once a full repetition contributed nothing. *)
  let r = ref 0 in
  let contributed = ref true in
  while !contributed do
    contributed := false;
    List.iter
      (fun (e : Schedule.entry) ->
        let iter = e.inst.iter + (!r * t.iter_shift) in
        if iter < iterations then begin
          contributed := true;
          add
            {
              inst = { node = e.inst.node; iter };
              proc = e.proc;
              start = e.start + (!r * t.height);
            }
        end)
      t.body;
    incr r
  done;
  !entries

let expand t ~iterations =
  Schedule.make ~graph:t.graph ~machine:t.machine (expand_entries t ~iterations)

(* Theorem 1 in closed form: body entry [e] recurs while its iteration
   stays below [iterations], so its last copy is repetition
   [(iterations - 1 - e.iter) / iter_shift] and finishes at [e.start +
   r * height + latency]; the makespan is the largest such finish (or
   prologue finish).  O(pattern), where {!expand} is O(iterations). *)
let makespan t ~iterations =
  if iterations <= 0 then invalid_arg "Pattern.makespan: iterations <= 0";
  let finish acc (e : Schedule.entry) ~reps =
    max acc (e.start + (reps * t.height) + Graph.latency t.graph e.inst.node)
  in
  let acc =
    List.fold_left
      (fun acc (e : Schedule.entry) ->
        if e.inst.iter < iterations then finish acc e ~reps:0 else acc)
      0 t.prologue
  in
  List.fold_left
    (fun acc (e : Schedule.entry) ->
      if e.inst.iter < iterations then
        finish acc e ~reps:((iterations - 1 - e.inst.iter) / t.iter_shift)
      else acc)
    acc t.body

let utilization t =
  let busy =
    List.fold_left
      (fun acc (e : Schedule.entry) -> acc + Graph.latency t.graph e.inst.node)
      0 t.body
  in
  float_of_int busy
  /. float_of_int (t.machine.Mimd_machine.Config.processors * t.height)

let pp ppf t =
  let rebased =
    List.map (fun (e : Schedule.entry) -> { e with start = e.start - t.window_start }) t.body
  in
  let body_sched = Schedule.make ~graph:t.graph ~machine:t.machine rebased in
  Format.fprintf ppf
    "@[<v>pattern: height %d cycle(s), %d iteration(s) per repetition (%.2f cycles/iter), window at cycle %d@,%s@]"
    t.height t.iter_shift (rate t) t.window_start
    (Schedule.render_grid body_sched)
