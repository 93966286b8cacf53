type snapshot = { proc : int; retired : int; total : int; current : string option }
type stall = { timeout : float; snapshots : snapshot list }

exception Runtime_deadlock of stall

let snapshots ~graph ~programs ~retired =
  let names = Mimd_ddg.Graph.name graph in
  List.init (Array.length programs) (fun proc ->
      let prog = Array.of_list programs.(proc) in
      let retired = retired proc in
      let current =
        if retired >= Array.length prog then None
        else Some (Format.asprintf "%a" (Mimd_codegen.Program.pp_instr ~names) prog.(retired))
      in
      { proc; retired; total = Array.length prog; current })

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
