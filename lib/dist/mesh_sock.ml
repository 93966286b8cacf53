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
   past the bound waits for the link to drain exactly like
   [Channel.send] past its capacity.  The cost that matters is not the
   frame's byte length (33 bytes) but what the kernel *charges* the
   buffer per sendmsg on AF_UNIX: each small write becomes one skb
   accounted at its truesize — frame + struct sk_buff + aligned data +
   shared info, close to 1 KiB.  Undershooting this makes the socket bound *tighter* than the
   domain mesh's and deadlocks programs the protocol simulation proved
   safe at [capacity], so budget a full KiB per message.  (The kernel
   clamps the request to wmem_max and then doubles it, so on a stock
   host the effective bound still clears [capacity] messages.) *)
let frame_estimate = 1024

let buffer_bytes = Value_run.default_channel_capacity * frame_estimate

let create ~procs () =
  if procs < 1 then invalid_arg "Mesh_sock.create: procs < 1";
  let fds = Array.init procs (fun _ -> Array.make procs None) in
  for i = 0 to procs - 1 do
    for j = i + 1 to procs - 1 do
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      List.iter
        (fun fd ->
          try
            Unix.setsockopt_int fd Unix.SO_SNDBUF buffer_bytes;
            Unix.setsockopt_int fd Unix.SO_RCVBUF buffer_bytes
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

(* ---------------------------------------------------------------- *)
(* The link: binary frames, a buffered reader, spin then park          *)

(* A message on the critical path costs what the receiver takes to
   notice it.  A reader blocked in read(2) sleeps, and waking it costs
   a scheduler round trip: on a 2-vCPU host a socketpair ping-pong
   measured 15-17 us a round trip with blocking reads and 7 us with
   polling ones.  So a pull first retries the non-blocking read for a
   short spin, then parks in select(2).  The spin must adapt: a fixed
   30 us spin made fig7 2.5-3.5x slower beside one CPU hog, and a
   fixed 50 us spin at p=3 on 2 vCPUs doubled ewf, because a spinning
   PE takes the CPU its producer needs.  The budget is additive
   increase, multiplicative decrease: a frame that arrives while
   spinning adds an eighth of the cap, a spin that runs out halves it
   (below 1 us it is 0, and the reader parks at once), and a link at 0
   re-probes: after 16 parks it spins once at the full cap.  The probe
   must be the cap: a frame from a parked peer takes 10-20 us (the peer
   must wake, compute and send), so a probe of an eighth of the cap
   (6.25 us) ran out every time and two links at 0 never spun again.
   A probe that a frame ends keeps the cap.  One that runs out goes
   straight back to 0 and doubles the parks before the next probe, up
   to 1024, so an idle link pays at most one 50 us spin per 16 parks
   and a contended one far less: with a cap probe every 16 parks, fig7
   and ewf beside one CPU hog ran 1.24-1.34x slower than with the
   cap/8 probe.  The budget starts at the cap for the same reason as the
   probe: two links that start lower can both give up before either
   sees the other spin (a ping-pong round trip is about 7 us).  Wasted
   spins take a contended link from the cap to 0 in six pulls. *)
let spin_cap_ns = 50_000

module Spin = struct
  type t = {
    mutable budget_ns : int;
    mutable idle_parks : int;  (* parks at 0 since the last probe *)
    mutable probe_every : int;  (* parks at 0 between probes: 16 to 1024 *)
    mutable probing : bool;
  }

  let create () = { budget_ns = spin_cap_ns; idle_parks = 0; probe_every = 16; probing = false }
  let budget_ns t = t.budget_ns

  let arrived t =
    if t.probing then begin
      t.probing <- false;
      t.probe_every <- 16
    end;
    t.budget_ns <- min spin_cap_ns (t.budget_ns + (spin_cap_ns / 8))

  let wasted t =
    if t.probing then begin
      t.probing <- false;
      t.probe_every <- min 1024 (2 * t.probe_every);
      t.budget_ns <- 0
    end
    else
      let half = t.budget_ns / 2 in
      t.budget_ns <- (if half < 1_000 then 0 else half)

  let parked_idle t =
    t.idle_parks <- t.idle_parks + 1;
    if t.idle_parks >= t.probe_every then begin
      t.idle_parks <- 0;
      t.budget_ns <- spin_cap_ns;
      t.probing <- true
    end
end

module Link = struct
  type t = {
    fd : Unix.file_descr;
    mutable out : Bytes.t;  (* reused encode buffer *)
    mutable buf : Bytes.t;  (* bytes read, not yet decoded: [pos, pos + len) *)
    mutable pos : int;
    mutable len : int;
    spin : Spin.t;
    mutable parks : int;
  }

  (* Both buffers start small enough to come from the minor heap (a
     forked child's major heap is the parent's, shared copy-on-write)
     and grow when a frame needs more. *)
  let create fd =
    Unix.set_nonblock fd;
    {
      fd;
      out = Bytes.create 64;
      buf = Bytes.create 1024;
      pos = 0;
      len = 0;
      spin = Spin.create ();
      parks = 0;
    }

  let parks t = t.parks

  let rec select_on r w =
    match Unix.select r w [] (-1.0) with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_on r w

  (* One write(2) per frame, so the kernel charges one skb per message
     and [buffer_bytes] bounds the link in messages as before; a full
     send buffer parks until the peer drains it. *)
  let rec write_from t off size =
    if off < size then
      match Unix.single_write t.fd t.out off (size - off) with
      | n -> write_from t (off + n) size
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        select_on [] [ t.fd ];
        write_from t off size
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_from t off size

  let send t ~tag payload =
    let size = Wire.frame_size payload in
    if Bytes.length t.out < size then t.out <- Bytes.create (max size (2 * Bytes.length t.out));
    write_from t 0 (Wire.encode t.out ~tag payload)

  (* Move the undecoded tail to the front; double the buffer when a
     frame fills all of it. *)
  let make_room t =
    if t.len = Bytes.length t.buf then begin
      let bigger = Bytes.create (2 * Bytes.length t.buf) in
      Bytes.blit t.buf t.pos bigger 0 t.len;
      t.buf <- bigger
    end
    else if t.pos > 0 then Bytes.blit t.buf t.pos t.buf 0 t.len;
    t.pos <- 0

  (* One non-blocking read into the free tail: [n > 0] bytes, [0] at
     end of stream, [-1] when nothing is there yet. *)
  let fill t =
    let off = t.pos + t.len in
    match Unix.read t.fd t.buf off (Bytes.length t.buf - off) with
    | n ->
      t.len <- t.len + n;
      n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> -1
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0

  let rec spin t deadline =
    match fill t with
    | -1 -> if Mimd_obs.Clock.now_ns () < deadline then spin t deadline else -1
    | n -> n

  (* Nothing buffered: spin for the budget, then park until readable. *)
  let rec wait t =
    let budget = Spin.budget_ns t.spin in
    let got =
      if budget = 0 then -1
      else
        match spin t (Mimd_obs.Clock.now_ns () + budget) with
        | -1 ->
          Spin.wasted t.spin;
          -1
        | n ->
          if n > 0 then Spin.arrived t.spin;
          n
    in
    if got >= 0 then got
    else begin
      if budget = 0 then Spin.parked_idle t.spin;
      t.parks <- t.parks + 1;
      select_on [ t.fd ] [];
      match fill t with -1 -> wait t | n -> n
    end

  let rec pull t =
    match Wire.decode t.buf ~pos:t.pos ~len:t.len with
    | Ok (_, payload) as frame ->
      let size = Wire.frame_size payload in
      t.pos <- t.pos + size;
      t.len <- t.len - size;
      if t.len = 0 then t.pos <- 0;
      frame
    | Error ((Wire.Closed | Wire.Truncated) as short) ->
      make_room t;
      let n = match fill t with -1 -> wait t | n -> n in
      if n = 0 then Error short else pull t
    | Error _ as e -> e
end

(* The wire side of a link is transport-independent: anything that can
   map a peer index to a connected stream fd gets the same link layer,
   the same [Link_down] classification and the same tracing, and
   {!Value_run.of_links} matches frames to recvs over it.  [Mesh_tcp]
   reuses this over dialed TCP connections. *)
let chans_of ~procs ~proc ~(link : int -> Unix.file_descr) =
  let traced = Trace.is_enabled () in
  let links = Array.init procs (fun peer -> if peer = proc then None else Some (Link.create (link peer))) in
  let link_to peer =
    match links.(peer) with Some l -> l | None -> invalid_arg "Mesh_sock: self link"
  in
  let send ~dst ~tag (v : Value_run.payload) =
    let l = link_to dst in
    (* A dead peer on the *send* side: SIGPIPE is ignored process-wide,
       so the write surfaces as EPIPE/ECONNRESET.  Classify it as the
       link going down, same as EOF on the read side — it is the same
       environmental event, and respawn supervision keys off the
       [Link_down] rendering. *)
    let write () =
      try Link.send l ~tag v
      with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
        raise (Link_down { proc; peer = dst; error = Wire.Closed })
    in
    if traced then
      Trace.span ~cat:"dist" ~args:[ ("dst", string_of_int dst) ] "dist.send" write
    else write ()
  in
  let read src l =
    match Link.pull l with
    | Ok frame -> frame
    | Error error -> raise (Link_down { proc; peer = src; error })
  in
  let next ~src =
    let l = link_to src in
    if not traced then read src l
    else begin
      let parks = Link.parks l and start_ns = Mimd_obs.Clock.now_ns () in
      let record () =
        Trace.record ~cat:"dist"
          ~args:[ ("src", string_of_int src); ("parked", string_of_bool (Link.parks l > parks)) ]
          ~name:"dist.recv" ~start_ns ~end_ns:(Mimd_obs.Clock.now_ns ()) ()
      in
      match read src l with
      | frame ->
        record ();
        frame
      | exception e ->
        record ();
        raise e
    end
  in
  Value_run.of_links ~procs ~send ~next

let chans t ~proc = chans_of ~procs:t.procs ~proc ~link:(fun peer -> link t ~proc ~peer)
