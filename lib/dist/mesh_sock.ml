module Value_run = Mimd_runtime.Value_run
module Trace = Mimd_obs.Trace

(* One full-duplex socketpair per unordered processor pair, created in
   the parent before any fork so every child inherits its own row.
   [fds.(i).(j)] is processor [i]'s endpoint of the i<->j link: writes
   go to [j], reads come from [j] (the two directions of one stream
   socket never interleave).  The diagonal is [None] — a self-message
   is a codegen bug. *)

type t = { procs : int; fds : Unix.file_descr option array array }

(* Approximate the in-process domains' bounded channels with the kernel
   socket buffer: capacity messages x a per-message cost.  A sender
   past the bound blocks in write(2) exactly like [Channel.send] past
   its capacity.  The cost that matters is not the frame's byte length
   (~50 bytes) but what the kernel *charges* the buffer per sendmsg on
   AF_UNIX: each small write becomes one skb accounted at its truesize
   — frame + struct sk_buff + aligned data + shared info, close to 1
   KiB.  Undershooting this makes the socket bound *tighter* than the
   domain mesh's and deadlocks programs the protocol simulation proved
   safe at [capacity], so budget a full KiB per message.  (The kernel
   clamps the request to wmem_max and then doubles it, so on a stock
   host the effective bound still clears [capacity] messages.) *)
let frame_estimate = 1024

let buffer_bytes ~capacity = capacity * frame_estimate

let create ?(capacity = Value_run.default_channel_capacity) ~procs () =
  if procs < 1 then invalid_arg "Mesh_sock.create: procs < 1";
  let fds = Array.init procs (fun _ -> Array.make procs None) in
  for i = 0 to procs - 1 do
    for j = i + 1 to procs - 1 do
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      List.iter
        (fun fd ->
          try
            Unix.setsockopt_int fd Unix.SO_SNDBUF (buffer_bytes ~capacity);
            Unix.setsockopt_int fd Unix.SO_RCVBUF (buffer_bytes ~capacity)
          with Unix.Unix_error _ -> ())
        [ a; b ];
      fds.(i).(j) <- Some a;
      fds.(j).(i) <- Some b
    done
  done;
  { procs; fds }

let procs t = t.procs

let link t ~proc ~peer =
  match t.fds.(proc).(peer) with
  | Some fd -> fd
  | None -> invalid_arg "Mesh_sock: self link"

(* Child-side: keep only row [proc], close every other inherited
   endpoint so a dead peer turns into EOF instead of a silent hang. *)
(* Closed slots become [None] so a later close cannot hit a reused
   descriptor number. *)
let close_row row =
  Array.iteri
    (fun i -> function
      | Some fd ->
        row.(i) <- None;
        (try Unix.close fd with Unix.Unix_error _ -> ())
      | None -> ())
    row

let retain_only t ~proc =
  for i = 0 to t.procs - 1 do
    if i <> proc then close_row t.fds.(i)
  done

let close_all t = Array.iter close_row t.fds

exception Link_down of { proc : int; peer : int; error : Wire.error }

(* The printer matters beyond diagnostics: a child that dies of a
   peer's link renders this message into its report, and the runner's
   respawn supervision classifies "link down:" child errors as
   environmental (retryable) — unlike a child's own deterministic
   failure. *)
let () =
  Printexc.register_printer (function
    | Link_down { proc; peer; error } ->
      Some
        (Printf.sprintf "link down: PE %d lost its link to PE %d (%s)" proc peer
           (Wire.error_to_string error))
    | _ -> None)

(* The wire side of a link is transport-independent: anything that can
   map a peer index to a connected stream fd gets the same framing,
   the same [Link_down] classification and the same tracing, and
   {!Value_run.of_links} matches frames to recvs over it.  [Mesh_tcp]
   reuses this over dialed TCP connections. *)
let chans_of ~procs ~proc ~(link : int -> Unix.file_descr) =
  let traced = Trace.is_enabled () in
  let send ~dst ~tag (v : Value_run.payload) =
    let fd = link dst in
    let payload : (int * int) * Value_run.payload = (tag, v) in
    (* A dead peer on the *send* side: SIGPIPE is ignored process-wide,
       so the write surfaces as EPIPE/ECONNRESET.  Classify it as the
       link going down, same as EOF on the read side — it is the same
       environmental event, and respawn supervision keys off the
       [Link_down] rendering. *)
    let write () =
      try Wire.write fd payload
      with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
        raise (Link_down { proc; peer = dst; error = Wire.Closed })
    in
    if traced then
      Trace.span ~cat:"dist" ~args:[ ("dst", string_of_int dst) ] "dist.send" write
    else write ()
  in
  let read src =
    match (Wire.read (link src) : ((int * int) * Value_run.payload, Wire.error) result) with
    | Ok frame -> frame
    | Error error -> raise (Link_down { proc; peer = src; error })
  in
  let next ~src =
    if traced then
      Trace.span ~cat:"dist" ~args:[ ("src", string_of_int src) ] "dist.recv" (fun () ->
          read src)
    else read src
  in
  Value_run.of_links ~procs ~send ~next

let chans t ~proc = chans_of ~procs:t.procs ~proc ~link:(fun peer -> link t ~proc ~peer)
