module Graph = Mimd_ddg.Graph
module Cyclic_sched = Mimd_core.Cyclic_sched
module Classify = Mimd_core.Classify
module Pattern = Mimd_core.Pattern

type row = { label : string; nodes : int; pattern : (Cyclic_sched.result, string) result }

let measure ?(machine = Mimd_machine.Config.default) ~label graph =
  let cls = Classify.run graph in
  if cls.Classify.cyclic = [] then None
  else begin
    let core, _, _ = Classify.cyclic_subgraph graph cls in
    let pattern =
      match Cyclic_sched.solve ~max_iterations:256 ~graph:core ~machine () with
      | r -> Ok r
      | exception Cyclic_sched.No_pattern _ ->
        let c = List.length (Graph.connected_components core) in
        Error (Printf.sprintf "no pattern in 256 iters, %d component%s" c (if c = 1 then "" else "s"))
      | exception Invalid_argument msg -> Error msg
    in
    Some { label; nodes = Graph.node_count core; pattern }
  end

let paper_workloads () =
  List.filter_map
    (fun (label, g, machine) -> measure ~machine ~label g)
    [
      ("fig3", Mimd_workloads.Fig3.graph (), Mimd_workloads.Fig3.machine);
      ("fig7", Mimd_workloads.Fig7.graph (), Mimd_workloads.Fig7.machine);
      ("cytron86", Mimd_workloads.Cytron86.graph (), Mimd_workloads.Cytron86.machine);
      ("ll18", Mimd_workloads.Livermore.graph (), Mimd_workloads.Livermore.machine);
      ("ewf", Mimd_workloads.Elliptic.graph (), Mimd_workloads.Elliptic.machine);
    ]

let random_loops ?(count = 25) () =
  let machine = Mimd_machine.Config.make ~processors:4 ~comm_estimate:3 in
  Table1.select_seeds ~count ()
  |> List.filter_map (fun seed ->
         match Mimd_workloads.Random_loop.generate_cyclic ~seed () with
         | None -> None
         | Some g -> measure ~machine ~label:(Printf.sprintf "random-%d" seed) g)

let render rows =
  let t =
    Mimd_util.Tablefmt.create
      ~header:[ "loop"; "nodes"; "M"; "cycle"; "cfgs"; "rejected"; "H"; "d" ]
      ()
  in
  let ms =
    List.filter_map
      (fun r ->
        let lead = [ r.label; string_of_int r.nodes ] in
        match r.pattern with
        | Ok { Cyclic_sched.stats = s; pattern = p } ->
          Mimd_util.Tablefmt.add_row t
            (lead
            @ List.map string_of_int
                [
                  s.Cyclic_sched.iterations_touched;
                  s.Cyclic_sched.detection_cycle;
                  s.Cyclic_sched.configurations_checked;
                  s.Cyclic_sched.candidates_rejected;
                  p.Pattern.height;
                  p.Pattern.iter_shift;
                ]);
          Some (float_of_int s.Cyclic_sched.iterations_touched)
        | Error cause ->
          Mimd_util.Tablefmt.add_span_row t lead cause;
          None)
      rows
  in
  let unsettled = List.length rows - List.length ms in
  Mimd_util.Tablefmt.render t
  ^ Printf.sprintf
      "M (iterations unwound) over %d of %d loops: mean %.1f, max %.0f%s  (paper: \"less than 10 in all the examples we ran\")\n"
      (List.length ms) (List.length rows) (Mimd_util.Stats.mean ms)
      (if ms = [] then 0.0 else Mimd_util.Stats.maximum ms)
      (if unsettled = 0 then "" else Printf.sprintf "; %d without a pattern" unsettled)
