module Trace = Mimd_obs.Trace
module Clock = Mimd_obs.Clock

type report = {
  vals : float array;
  sent : int;
  wall_ns : float;
  trace : Trace.captured option;
  unread : int;
}

type request = { key : string; form : Lower.t option; tracing : bool }
type reply = Ready | Done of report | Failed of { pc : int; message : string }

let hold entry held = List.filteri (fun i _ -> i < 8) (entry :: held)

(* Two parents that compiled independently agree on it iff they
   compiled the same schedule: the TCP handshake enforces it too. *)
let fingerprint ~loop ~program =
  Digest.to_hex (Digest.string (Marshal.to_string (loop, program) []))

let serve ctl ~proc ~traces ~worker connect =
  let reply r = match Wire.write ctl (r : reply) with () -> true | exception _ -> false in
  let rec loop row held =
    match (Wire.read ctl : (request, Wire.error) result) with
    | Error _ -> ()
    | Ok { key; form; tracing } ->
      let held = match form with Some l -> hold (key, l) held | None -> held in
      let lowered = List.assoc key held in
      if traces then if tracing then Trace.enable () else Trace.disable ();
      let t0 = Clock.now_ns () in
      let outcome =
        match worker ~lowered ~proc ~chans:(Mesh_sock.row_chans row) () with
        | Error (pc, e) -> Failed { pc; message = Printexc.to_string e }
        | Ok (vals, sent) -> (
          let wall_ns = float_of_int (Clock.now_ns () - t0) in
          (* Settling is part of the call: a peer that dies while this
             member waits for its end marker is a "link down:" report,
             a symptom, like a death seen during the worker. *)
          match Mesh_sock.settle row with
          | unread ->
            let trace = if traces && tracing then Some (Trace.capture ()) else None in
            if traces then Trace.clear ();
            Done { vals; sent; wall_ns; trace; unread }
          | exception e ->
            let pc = Mimd_codegen.Program.length lowered.Lower.procs.(proc).Lower.code in
            Failed { pc; message = Printexc.to_string e })
      in
      if reply outcome then match outcome with Done _ -> loop row held | Ready | Failed _ -> ()
  in
  match connect () with
  | row -> if reply Ready then loop row []
  | exception e -> ignore (reply (Failed { pc = 0; message = Printexc.to_string e }))

type kind = {
  layer : string;
  spawn : int -> Unix.file_descr;
  spawned : unit -> unit;
  cancel : unit -> unit;
  finish : unit -> unit;
  exited : int -> string;
}

type failure =
  | Stalled of { waiting : int list; replies : reply option array }
  | Exited of { proc : int; status : string }
  | Raised of { proc : int; pc : int; message : string }

exception Team_failed of failure

let symptom = function
  | Raised { message; _ } -> String.starts_with ~prefix:"link down:" message
  | Exited _ | Stalled _ -> false

(* A form the members hold, by its key and the loop and program it was
   lowered from, so that a caller passing the same values again finds
   it by [==] without hashing them. *)
type held = { key : string; loop : Mimd_loop_ir.Ast.loop; program : Mimd_codegen.Program.t }

type t = {
  kind : kind;
  procs : int;
  owner : int;  (* the pid that started the members: only it may end them *)
  ctl : Unix.file_descr array;  (* this process's end of each member's control socket *)
  once : bool;
  mutable retired : bool;  (* the control ends are closed: the team takes no call *)
  mutable held : held list;  (* newest first, by {!hold} *)
}

let close_ctl t =
  if not t.retired then begin
    t.retired <- true;
    Array.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.ctl
  end

let retire t =
  if not t.retired then begin
    t.kind.cancel ();
    close_ctl t;
    t.kind.finish ()
  end

let fail t failure =
  retire t;
  raise (Team_failed failure)

let span kind ?args name f = Trace.span ~cat:kind.layer ?args (kind.layer ^ name) f

(* One reply from every member, by select across the control sockets,
   ended by {!Collect}'s rule.  A member's death reaches its peers as
   "link down:", so the first failure to arrive is often the symptom,
   not the cause. *)
let gather t ~timeout =
  let replies = Array.make t.procs None in
  let settle j =
    let failed f = if symptom f then Collect.Symptom (j, f) else Own (j, f) in
    match (Wire.read t.ctl.(j) : (reply, Wire.error) result) with
    | Ok (Failed { pc; message } as r) ->
      replies.(j) <- Some r;
      failed (Raised { proc = j; pc; message })
    | Ok r ->
      replies.(j) <- Some r;
      Collect.Report j
    | Error _ -> failed (Exited { proc = j; status = t.kind.exited j })
  in
  let wait pending seconds =
    match Unix.select (List.map (fun j -> t.ctl.(j)) pending) [] [] seconds with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    | ready, _, _ ->
      List.filter_map (fun j -> if List.mem t.ctl.(j) ready then Some (settle j) else None) pending
  in
  match Collect.run ~procs:t.procs ~timeout ~now:Clock.now_ns ~wait with
  | Done -> Array.map Option.get replies
  | Failed f -> fail t f
  | Stalled waiting ->
    t.kind.cancel ();
    List.iter (fun j -> ignore (settle j)) waiting;
    fail t (Stalled { waiting; replies })

let start ?(once = false) kind ~procs ~timeout =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let ctl = ref [] in
  let team () =
    let ctl = Array.of_list (List.rev !ctl) in
    { kind; procs; owner = Unix.getpid (); ctl; once; retired = false; held = [] }
  in
  Fun.protect ~finally:kind.spawned (fun () ->
      span kind ".spawn" ~args:[ ("procs", string_of_int procs) ] (fun () ->
          try
            for j = 0 to procs - 1 do
              ctl := kind.spawn j :: !ctl
            done
          with e ->
            retire (team ());
            raise e));
  let t = team () in
  ignore (span kind ".ready" (fun () -> gather t ~timeout));
  t

(* Send [frame] to every member within [timeout] seconds.  The control
   ends are non-blocking while it ships, so a member that takes no
   request (a stopped one, say) is a stall, not a parent blocked in
   write(2).  A member already gone is found by the gathering. *)
let ship t ~timeout frame =
  let len = Bytes.length frame in
  let sent = Array.make t.procs 0 in
  let deadline = Clock.now_ns () + int_of_float (timeout *. 1e9) in
  let rec go pending =
    List.iter
      (fun j ->
        match Unix.single_write t.ctl.(j) frame sent.(j) (len - sent.(j)) with
        | n -> sent.(j) <- sent.(j) + n
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | exception Unix.Unix_error _ -> sent.(j) <- len)
      pending;
    match List.filter (fun j -> sent.(j) < len) pending with
    | [] -> ()
    | pending ->
      let left = float_of_int (deadline - Clock.now_ns ()) /. 1e9 in
      if left <= 0.0 then fail t (Stalled { waiting = pending; replies = Array.make t.procs None });
      (try ignore (Unix.select [] (List.map (fun j -> t.ctl.(j)) pending) [] left)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      go pending
  in
  Array.iter Unix.set_nonblock t.ctl;
  Fun.protect
    ~finally:(fun () -> if not t.retired then Array.iter Unix.clear_nonblock t.ctl)
    (fun () -> go (List.init t.procs Fun.id))

let call t ~timeout ?shipped ~lower ~loop ~program () =
  (* A held program goes by its key alone and is never lowered again;
     any other is lowered, held, and shipped with its key. *)
  let request =
    let key = lazy (fingerprint ~loop ~program) in
    let tracing = Trace.is_enabled () in
    match
      List.find_opt (fun h -> h.loop == loop && h.program == program) t.held
      |> function Some h -> Some h | None -> List.find_opt (fun h -> h.key = Lazy.force key) t.held
    with
    | Some h -> { key = h.key; form = None; tracing }
    | None ->
      let form = lower () in
      t.held <- hold { key = Lazy.force key; loop; program } t.held;
      { key = Lazy.force key; form = Some form; tracing }
  in
  span t.kind ".run" @@ fun () ->
  let reports =
    match
      span t.kind ".ship"
        ~args:[ ("form", if Option.is_none request.form then "held" else "shipped") ]
        (fun () -> ship t ~timeout (Wire.frame request));
      Option.iter (fun f -> f ()) shipped;
      span t.kind ".collect" (fun () ->
          Array.map (function Done r -> r | Ready | Failed _ -> assert false) (gather t ~timeout))
    with
    | reports ->
      (* A frame left on a link would be read by the next call. *)
      if t.once || Array.exists (fun r -> r.unread > 0) reports then retire t;
      reports
    | exception e ->
      retire t;
      raise e
  in
  (* Each spawned member's timeline lands on its own track block. *)
  Array.iteri
    (fun j r -> Option.iter (fun c -> Trace.absorb ~tid_offset:((j + 1) * 1000) c) r.trace)
    reports;
  Value_run.finalize ~loop ~program
    ~results:(Array.map (fun r -> (r.vals, r.sent, r.wall_ns)) reports)

type slot = t option ref

let clear s =
  Option.iter (fun t -> if t.owner = Unix.getpid () then retire t else close_ctl t) !s;
  s := None

let slot () =
  let s = ref None in
  at_exit (fun () -> clear s);
  s

let take s ~procs ~start =
  match !s with
  | Some t when (not t.retired) && t.owner = Unix.getpid () && t.procs = procs -> t
  | _ ->
    clear s;
    let t = start () in
    s := Some t;
    t
