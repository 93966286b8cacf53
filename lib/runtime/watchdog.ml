type snapshot = { proc : int; retired : int; total : int; current : string option }
type stall = { timeout : float; snapshots : snapshot list }

exception Runtime_deadlock of stall

module Program = Mimd_codegen.Program

let snapshots ~(program : Program.t) ~retired =
  let names = Mimd_ddg.Graph.name program.graph in
  List.init (Array.length program.code) (fun proc ->
      let code = program.code.(proc) in
      let retired = retired proc and total = Program.length code in
      let current =
        if retired >= total then None
        else Some (Format.asprintf "%a" (Program.pp_instr ~names) (Program.decode code retired))
      in
      { proc; retired; total; current })

let pp_snapshot ppf s =
  Format.fprintf ppf "PE%d: %d/%d retired%s" s.proc s.retired s.total
    (match s.current with None -> ", program done" | Some i -> ", stuck on " ^ i)

let describe (stall : stall) =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "no progress for %.2fs across %d domain(s):\n" stall.timeout
       (List.length stall.snapshots));
  List.iter
    (fun s -> Buffer.add_string buf (Format.asprintf "  %a\n" pp_snapshot s))
    stall.snapshots;
  Buffer.contents buf

let () =
  Printexc.register_printer (function
    | Runtime_deadlock stall -> Some ("Runtime_deadlock: " ^ describe stall)
    | _ -> None)
