module Unwind = Mimd_ddg.Unwind

type point = { factor : int; rate : float; pattern : Pattern.t }
type t = { curve : point list; chosen : point }

(* A factor within 2% of the best rate counts as reaching it. *)
let tolerance = 0.02

let search ?(max_factor = 4) ?max_iterations ~graph ~machine () =
  if max_factor < 1 then invalid_arg "Unroll_opt.search: max_factor < 1";
  let point factor =
    let unrolled = (Unwind.unroll graph ~times:factor).Unwind.graph in
    let r = Cyclic_sched.solve ?max_iterations ~graph:unrolled ~machine () in
    let p = r.Cyclic_sched.pattern in
    (* One unrolled iteration stands for [factor] original ones. *)
    { factor; rate = Pattern.rate p /. float_of_int factor; pattern = p }
  in
  let curve = List.init max_factor (fun i -> point (i + 1)) in
  let best = List.fold_left (fun acc pt -> Float.min acc pt.rate) infinity curve in
  let chosen = List.find (fun pt -> pt.rate <= best *. (1.0 +. tolerance)) curve in
  { curve; chosen }

let render t =
  let tbl =
    Mimd_util.Tablefmt.create
      ~header:[ "unroll"; "cycles/orig iter"; "pattern H"; "pattern d"; "note" ]
      ()
  in
  List.iter
    (fun pt ->
      Mimd_util.Tablefmt.add_row tbl
        [
          string_of_int pt.factor;
          Printf.sprintf "%.2f" pt.rate;
          string_of_int pt.pattern.Pattern.height;
          string_of_int pt.pattern.Pattern.iter_shift;
          (if pt.factor = t.chosen.factor then "<- chosen" else "");
        ])
    t.curve;
  Mimd_util.Tablefmt.render tbl
