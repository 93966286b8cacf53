type snapshot = { proc : int; retired : int; total : int; current : string option }
type stall = { timeout : float; snapshots : snapshot list }

exception Runtime_deadlock of stall

type config = { timeout : float; poll_interval : float }

let config ?(timeout = 5.0) ?(poll_interval = 0.01) () =
  if timeout <= 0.0 then invalid_arg "Watchdog.config: timeout <= 0";
  if poll_interval <= 0.0 then invalid_arg "Watchdog.config: poll_interval <= 0";
  { timeout; poll_interval }

let default = config ()
let off = { timeout = infinity; poll_interval = 0.01 }

(* The first pause is short so a run that finishes in a millisecond
   returns in about one; each pause doubles up to [poll_interval]. *)
let first_pause = 1e-4

let guard ~config ~finished ~progress ~cancel ~snapshots () =
  let last = ref (progress ()) in
  let last_change = ref (Mimd_obs.Clock.now_ns ()) in
  let rec loop pause =
    if finished () then `Finished
    else begin
      Unix.sleepf pause;
      let pause = Float.min config.poll_interval (pause *. 2.0) in
      if finished () then `Finished
      else begin
        let p = progress () in
        let now = Mimd_obs.Clock.now_ns () in
        if p <> !last then begin
          last := p;
          last_change := now;
          loop pause
        end
        else if float_of_int (now - !last_change) *. 1e-9 >= config.timeout then begin
          cancel ();
          `Stalled { timeout = config.timeout; snapshots = snapshots () }
        end
        else loop pause
      end
    end
  in
  loop (Float.min config.poll_interval first_pause)

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
