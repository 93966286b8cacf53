module Graph = Mimd_ddg.Graph
module Schedule = Mimd_core.Schedule
module Pattern = Mimd_core.Pattern

(* Blocks group a compute with the receives before it and the sends
   after it, so a whole block inherits the compute's period. *)
type block = { compute : Program.instr; recvs : Program.instr list; sends : Program.instr list }

let blocks_of_program prog =
  let rec go acc pending = function
    | [] -> List.rev acc
    | (Program.Recv _ | Program.Recv_pack _) as r :: rest -> go acc (r :: pending) rest
    | Program.Compute _ as c :: rest ->
      let sends, rest' =
        let rec take sends = function
          | ((Program.Send _ | Program.Send_pack _) as s) :: tl -> take (s :: sends) tl
          | tl -> (List.rev sends, tl)
        in
        take [] rest
      in
      go ({ compute = c; recvs = List.rev pending; sends } :: acc) [] rest'
    | (Program.Send _ | Program.Send_pack _) :: rest ->
      go acc pending rest (* orphan send: keep going *)
  in
  go [] [] prog

let instr_iter = function
  | Program.Compute { iter; _ } -> iter
  | Program.Send { tag; _ } | Program.Recv { tag; _ } -> tag.iter
  | Program.Send_pack { tags; _ } | Program.Recv_pack { tags; _ } ->
    (List.hd tags).iter

let symbolic names base instr =
  let idx iter =
    let o = iter - base in
    if o = 0 then "i" else if o > 0 then Printf.sprintf "i+%d" o else Printf.sprintf "i-%d" (-o)
  in
  match instr with
  | Program.Compute { node; iter } -> Printf.sprintf "%s[%s]" (names node) (idx iter)
  | Program.Send { tag; dst } ->
    Printf.sprintf "SEND %s[%s] -> PE%d" (names tag.node) (idx tag.iter) dst
  | Program.Recv { tag; src } ->
    Printf.sprintf "RECV %s[%s] <- PE%d" (names tag.node) (idx tag.iter) src
  | Program.Send_pack { tags; dst } ->
    Printf.sprintf "SEND {%s} -> PE%d"
      (String.concat ","
         (List.map (fun (t : Program.tag) -> Printf.sprintf "%s[%s]" (names t.node) (idx t.iter)) tags))
      dst
  | Program.Recv_pack { tags; src } ->
    Printf.sprintf "RECV {%s} <- PE%d"
      (String.concat ","
         (List.map (fun (t : Program.tag) -> Printf.sprintf "%s[%s]" (names t.node) (idx t.iter)) tags))
      src

let concrete names instr =
  match instr with
  | Program.Compute { node; iter } -> Printf.sprintf "%s[%d]" (names node) iter
  | Program.Send { tag; dst } -> Printf.sprintf "SEND %s[%d] -> PE%d" (names tag.node) tag.iter dst
  | Program.Recv { tag; src } -> Printf.sprintf "RECV %s[%d] <- PE%d" (names tag.node) tag.iter src
  | Program.Send_pack { tags; dst } ->
    Printf.sprintf "SEND {%s} -> PE%d"
      (String.concat ","
         (List.map (fun (t : Program.tag) -> Printf.sprintf "%s[%d]" (names t.node) t.iter) tags))
      dst
  | Program.Recv_pack { tags; src } ->
    Printf.sprintf "RECV {%s} <- PE%d"
      (String.concat ","
         (List.map (fun (t : Program.tag) -> Printf.sprintf "%s[%d]" (names t.node) t.iter) tags))
      src

let render (pattern : Pattern.t) =
  let d = pattern.iter_shift in
  let prologue_iters =
    List.fold_left (fun acc (e : Schedule.entry) -> max acc (e.inst.iter + 1)) 0 pattern.prologue
  in
  let iterations = prologue_iters + (5 * d) in
  let sched = Pattern.expand pattern ~iterations in
  let prog = From_schedule.run sched in
  let names i = Graph.name pattern.graph i in
  let t1 = pattern.window_start and h = pattern.height in
  let period_of (b : block) =
    match b.compute with
    | Program.Compute { node; iter } -> begin
      match Schedule.find sched { node; iter } with
      | Some e -> if e.start < t1 then -1 else (e.start - t1) / h
      | None -> -1
    end
    | _ -> -1
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf
       "PARBEGIN  -- steady state: %d iteration(s) every %d cycle(s) per trip\n" d h);
  Array.iteri
    (fun proc instrs ->
      Buffer.add_string buf (Printf.sprintf "PE%d:\n" proc);
      let blocks = blocks_of_program instrs in
      let startup = List.filter (fun b -> period_of b < 2) blocks in
      let body = List.filter (fun b -> period_of b = 2) blocks in
      List.iter
        (fun b ->
          List.iter (fun r -> Buffer.add_string buf ("    " ^ concrete names r ^ "\n")) b.recvs;
          Buffer.add_string buf ("    " ^ concrete names b.compute ^ "\n");
          List.iter (fun s -> Buffer.add_string buf ("    " ^ concrete names s ^ "\n")) b.sends)
        startup;
      (match body with
      | [] -> Buffer.add_string buf "    (no steady-state work on this processor)\n"
      | first :: _ ->
        let base = instr_iter first.compute in
        Buffer.add_string buf
          (Printf.sprintf "    FOR i = %d, %d, ... (step %d):\n" base (base + d) d);
        List.iter
          (fun b ->
            List.iter
              (fun r -> Buffer.add_string buf ("        " ^ symbolic names base r ^ "\n"))
              b.recvs;
            Buffer.add_string buf ("        " ^ symbolic names base b.compute ^ "\n");
            List.iter
              (fun s -> Buffer.add_string buf ("        " ^ symbolic names base s ^ "\n"))
              b.sends)
          body;
        Buffer.add_string buf "    ENDFOR  -- epilogue drains symmetrically\n"))
    (Program.to_instrs prog);
  Buffer.add_string buf "PAREND\n";
  Buffer.contents buf
