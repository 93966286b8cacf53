module Graph = Mimd_ddg.Graph
module Config = Mimd_machine.Config
module Random_loop = Mimd_workloads.Random_loop
module Links = Mimd_sim.Links
module Tablefmt = Mimd_util.Tablefmt

let mms = [ 1; 3; 5 ]

type row = {
  seed : int;
  cyclic_nodes : int;
  ours : float array;
  doacross : float array;
}

type summary = {
  ours_mean : float array;
  doacross_mean : float array;
  factor : float array;
}

let min_cyclic = 6

let select_seeds ?(count = 25) ?params () =
  let rec scan seed acc found =
    if found >= count then List.rev acc
    else begin
      match Random_loop.generate_cyclic ?params ~seed () with
      | Some sub when Graph.node_count sub >= min_cyclic ->
        scan (seed + 1) (seed :: acc) (found + 1)
      | Some _ | None -> scan (seed + 1) acc found
    end
  in
  scan 1 [] 0

(* The same master seed drives both algorithms' simulations for one
   (loop, mm) cell, so they face identical link conditions. *)
let links_for ~seed ~mm ~k =
  if mm = 1 then Links.fixed k else Links.uniform ~base:k ~mm ~seed:((seed * 31) + mm)

let run ?(iterations = 100) ?(processors = 4) ?(k = 3) ?seeds ?params () =
  let seeds = match seeds with Some s -> s | None -> select_seeds ?params () in
  let machine = Config.make ~processors ~comm_estimate:k in
  let rows =
    List.filter_map
      (fun seed ->
        match Random_loop.generate_cyclic ?params ~seed () with
        | None -> None
        | Some graph ->
          let nmm = List.length mms in
          let ours = Array.make nmm 0.0 in
          let doacross = Array.make nmm 0.0 in
          List.iteri
            (fun idx mm ->
              let links = links_for ~seed ~mm ~k in
              let r = Compare.cyclic_only ~iterations ~links ~graph ~machine () in
              ours.(idx) <- Compare.ours_sim_sp r;
              doacross.(idx) <- Compare.doacross_sim_sp r)
            mms;
          Some { seed; cyclic_nodes = Graph.node_count graph; ours; doacross })
      seeds
  in
  let nmm = List.length mms in
  let mean sel idx =
    Mimd_util.Stats.mean (List.map (fun r -> (sel r).(idx)) rows)
  in
  let ours_mean = Array.init nmm (mean (fun r -> r.ours)) in
  let doacross_mean = Array.init nmm (mean (fun r -> r.doacross)) in
  let factor =
    Array.init nmm (fun i ->
        if doacross_mean.(i) = 0.0 then nan else ours_mean.(i) /. doacross_mean.(i))
  in
  (rows, { ours_mean; doacross_mean; factor })

let render (rows, summary) =
  let fl = Tablefmt.cell_float in
  let header =
    "loop" :: "cyclic" :: List.concat_map (fun mm -> [ Printf.sprintf "x mm=%d" mm; Printf.sprintf "doacross mm=%d" mm ]) mms
  in
  let t = Tablefmt.create ~header () in
  List.iteri
    (fun i r ->
      Tablefmt.add_row t
        (string_of_int i :: string_of_int r.cyclic_nodes
        :: List.concat
             (List.mapi (fun idx _ -> [ fl r.ours.(idx); fl r.doacross.(idx) ]) mms)))
    rows;
  let s = Tablefmt.create ~header:("" :: List.map (fun mm -> Printf.sprintf "mm=%d" mm) mms) () in
  Tablefmt.add_row s ("x mean" :: Array.to_list (Array.map (fl ~decimals:4) summary.ours_mean));
  Tablefmt.add_row s
    ("DOACROSS mean" :: Array.to_list (Array.map (fl ~decimals:4) summary.doacross_mean));
  Tablefmt.add_row s
    ("factor of speed-up" :: Array.to_list (Array.map (fl ~decimals:1) summary.factor));
  "Table 1(a): percentage parallelism per random loop (x = our algorithm)\n"
  ^ Tablefmt.render t ^ "\nTable 1(b): averages\n" ^ Tablefmt.render s
