module Graph = Mimd_ddg.Graph
module Program = Mimd_codegen.Program

(* Characters per cycle. *)
let cell_width = 3

let render ?(max_cycles = 120) ~graph ~processors events =
  let span =
    List.fold_left (fun acc (e : Exec.event) -> max acc e.Exec.time) 0 events
  in
  let limit = min span max_cycles in
  let width = limit * cell_width in
  let rows = Array.init processors (fun _ -> Bytes.make width '.') in
  let mark proc ~from ~until label =
    let lo = max 0 (from * cell_width) and hi = min width (until * cell_width) in
    for c = lo to hi - 1 do
      Bytes.set rows.(proc) c '='
    done;
    String.iteri
      (fun i ch -> if lo + i < hi then Bytes.set rows.(proc) (lo + i) ch)
      label
  in
  List.iter
    (fun (ev : Exec.event) ->
      match ev.Exec.instr with
      | Program.Compute { node; iter } ->
        let lat = Graph.latency graph node in
        let label = Printf.sprintf "%s%d" (Graph.name graph node) iter in
        mark ev.Exec.proc ~from:(ev.Exec.time - lat) ~until:ev.Exec.time label
      | Program.Send _ | Program.Recv _ | Program.Send_pack _
      | Program.Recv_pack _ -> ())
    events;
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "cycles 0..%d%s ('=' busy, '.' idle/blocked)\n" limit
       (if limit < span then Printf.sprintf " (of %d)" span else ""));
  Array.iteri
    (fun p row -> Buffer.add_string buf (Printf.sprintf "PE%-2d |%s|\n" p (Bytes.to_string row)))
    rows;
  Buffer.contents buf
