module Graph = Mimd_ddg.Graph
module Config = Mimd_machine.Config

type point = { processors : int; rate : float; height : int; iter_shift : int }
type t = { curve : point list; chosen : point; bound : float }

(* A p within 2% of the best rate counts as reaching it. *)
let tolerance = 0.02

let search ?(max_processors = 8) ?max_iterations ~graph ~comm_estimate () =
  if max_processors < 1 then invalid_arg "Auto_procs.search: max_processors < 1";
  let point processors =
    let machine = Config.make ~processors ~comm_estimate in
    let r = Cyclic_sched.solve ?max_iterations ~graph ~machine () in
    let p = r.Cyclic_sched.pattern in
    {
      processors;
      rate = Pattern.rate p;
      height = p.Pattern.height;
      iter_shift = p.Pattern.iter_shift;
    }
  in
  let curve = List.init max_processors (fun i -> point (i + 1)) in
  let best = List.fold_left (fun acc pt -> Float.min acc pt.rate) infinity curve in
  let chosen =
    List.find (fun pt -> pt.rate <= best *. (1.0 +. tolerance)) curve
  in
  { curve; chosen; bound = Mimd_ddg.Reach.recurrence_bound graph }

let render t =
  let tbl =
    Mimd_util.Tablefmt.create ~header:[ "processors"; "cycles/iter"; "H"; "d"; "note" ] ()
  in
  List.iter
    (fun pt ->
      Mimd_util.Tablefmt.add_row tbl
        [
          string_of_int pt.processors;
          Printf.sprintf "%.2f" pt.rate;
          string_of_int pt.height;
          string_of_int pt.iter_shift;
          (if pt.processors = t.chosen.processors then "<- chosen" else "");
        ])
    t.curve;
  Mimd_util.Tablefmt.render tbl
  ^ Printf.sprintf "recurrence bound %.2f cycles/iteration; chosen p = %d at %.2f\n" t.bound
      t.chosen.processors t.chosen.rate
