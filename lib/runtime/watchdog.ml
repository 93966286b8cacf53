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

let guard ~config ~finished ~progress ~cancel ~snapshots () =
  let last = ref (progress ()) in
  let last_change = ref (Mimd_obs.Clock.now_ns ()) in
  let rec loop () =
    if finished () then `Finished
    else begin
      Unix.sleepf config.poll_interval;
      if finished () then `Finished
      else begin
        let p = progress () in
        let now = Mimd_obs.Clock.now_ns () in
        if p <> !last then begin
          last := p;
          last_change := now;
          loop ()
        end
        else if float_of_int (now - !last_change) *. 1e-9 >= config.timeout then begin
          cancel ();
          `Stalled { timeout = config.timeout; snapshots = snapshots () }
        end
        else loop ()
      end
    end
  in
  loop ()

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
