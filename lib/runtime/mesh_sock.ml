module Trace = Mimd_obs.Trace
module Spsc = Mimd_obs.Spsc

(* One full-duplex socketpair per unordered processor pair and one
   byte ring per ordered pair in a memfd, created in the parent; a
   process spawned to play processor [i] inherits row [i] and the
   memfd ({!part}).  [fds.(i).(j)] is processor [i]'s endpoint of the
   i<->j socketpair; ring [ring_index i j] carries i's bytes to j.
   The diagonal is [None] — a self-message is a codegen bug.  Every
   descriptor is close-on-exec: a spawner hands a member its own. *)

type part = {
  procs : int;
  proc : int;
  links : Unix.file_descr option array;
  rings : Unix.file_descr;
}

type t = { procs : int; fds : Unix.file_descr option array array; rings : Spsc.mapping }

(* A ring holds [capacity] KiB of frame bytes: what the socketpairs'
   buffers were sized to when the frames travelled through them (the
   kernel charges each small AF_UNIX write its skb truesize, close to
   1 KiB, not its 33 bytes).  That is far more than [capacity] frames,
   so a program the protocol simulation proved safe at [capacity]
   cannot deadlock on a ring link. *)
let buffer_bytes = Value_run.default_channel_capacity * 1024

(* Ring i->j among the p (p - 1) off-diagonal pairs. *)
let ring_index ~procs i j = (i * (procs - 1)) + if j < i then j else j - 1

let create ~procs () =
  if procs < 1 then invalid_arg "Mesh_sock.create: procs < 1";
  let fds = Array.init procs (fun _ -> Array.make procs None) in
  for i = 0 to procs - 1 do
    for j = i + 1 to procs - 1 do
      let a, b = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      fds.(i).(j) <- Some a;
      fds.(j).(i) <- Some b
    done
  done;
  { procs; fds; rings = Spsc.map ~rings:(procs * (procs - 1)) ~capacity:buffer_bytes () }

let part (t : t) ~proc : part =
  { procs = t.procs; proc; links = Array.copy t.fds.(proc); rings = Spsc.fd t.rings }

let attach (p : part) =
  let fds = Array.init p.procs (fun i -> if i = p.proc then p.links else Array.make p.procs None) in
  let rings = Spsc.map ~fd:p.rings ~rings:(p.procs * (p.procs - 1)) ~capacity:buffer_bytes () in
  { procs = p.procs; fds; rings }

let link t ~proc ~peer =
  match t.fds.(proc).(peer) with
  | Some fd -> fd
  | None -> invalid_arg "Mesh_sock: self link"

let close_fd slots i =
  match slots.(i) with
  | Some fd ->
    slots.(i) <- None;
    (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ()

(* Closed slots become [None] so a later close cannot hit a reused
   descriptor number. *)
let close_link t ~proc ~peer = close_fd t.fds.(proc) peer

let close_all t =
  Array.iter (fun row -> Array.iteri (fun i _ -> close_fd row i) row) t.fds;
  Spsc.unmap t.rings

(* A shut endpoint reads as end of stream on both sides of its pair:
   every reader or writer parked on a doorbell wakes, finds the link
   gone and raises [Link_down].  Unlike a close, a shutdown leaves the
   descriptor number held, so a waiter never selects on a reused one. *)
let cancel t =
  Array.iter
    (Array.iter (function
      | Some fd -> ( try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
      | None -> ()))
    t.fds

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
   measured 15-17 us a round trip with blocking reads, 7 us with
   polling ones, and about 1 us when the frames go through a shared
   ring that the reader polls (no system call on either side).  So a
   pull first polls for a short spin, then parks in select(2).

   A ring link's wait is {!Spsc}'s handshake on the ring's flags, with
   the socketpair as doorbell (spsc_stubs.c says why no wake-up is
   lost).  A waiter woken by a stale byte drains it and looks again;
   end of stream on the socket is the peer's death, as on a stream
   link.

   The spin must adapt: a fixed 30 us spin made fig7 2.5-3.5x slower
   beside one CPU hog, and a fixed 50 us spin at p=3 on 2 vCPUs
   doubled ewf (both on socket links), because a spinning
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
    fd : Unix.file_descr;  (* the stream, or a ring link's doorbell *)
    rings : (Spsc.ring * Spsc.ring) option;  (* from the peer, to the peer *)
    mutable out : Bytes.t;  (* reused encode buffer *)
    mutable buf : Bytes.t;  (* bytes read, not yet decoded: [pos, pos + len) *)
    mutable pos : int;
    mutable len : int;
    spin : Spin.t;
    mutable parks : int;
  }

  (* Both buffers start small enough to come from the minor heap and
     grow when a frame needs more. *)
  let make ?rings fd =
    Unix.set_nonblock fd;
    {
      fd;
      rings;
      out = Bytes.create 64;
      buf = Bytes.create 1024;
      pos = 0;
      len = 0;
      spin = Spin.create ();
      parks = 0;
    }

  let create fd = make fd
  let parks t = t.parks

  let rec select_on r w =
    match Unix.select r w [] (-1.0) with
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> select_on r w

  (* A ring waiter blocks until its doorbell rings; end of stream there
     means the peer is gone. *)
  let doorbell t =
    select_on [ t.fd ] [];
    Spsc.drain t.fd <> 0

  (* Over a socket, one write(2) per frame, so the kernel charges one
     skb per message and its buffers bound the link in messages; a
     full send buffer parks until the peer drains it.  Over a ring, a
     copy; a full ring parks until the reader frees room, and a frame
     larger than the ring goes in pieces. *)
  let rec write_from t off size =
    if off < size then
      match t.rings with
      | Some (_, tx) -> (
        match Spsc.write tx ~doorbell:t.fd t.out off (size - off) with
        | 0 ->
          if Spsc.park_writer tx = 0 && not (doorbell t) then
            raise (Unix.Unix_error (Unix.EPIPE, "write", ""));
          write_from t off size
        | n -> write_from t (off + n) size)
      | None -> (
        match Unix.single_write t.fd t.out off (size - off) with
        | n -> write_from t (off + n) size
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          select_on [] [ t.fd ];
          write_from t off size
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_from t off size)

  let send t ~node ~iter payload =
    let size = Wire.frame_size payload in
    if Bytes.length t.out < size then t.out <- Bytes.create (max size (2 * Bytes.length t.out));
    write_from t 0 (Wire.encode t.out ~node ~iter payload)

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
     end of stream, [-1] when nothing is there yet.  A ring has no end
     of stream: its doorbell shows it ({!park}). *)
  let fill t =
    let off = t.pos + t.len in
    match t.rings with
    | Some (rx, _) -> (
      match Spsc.read rx ~doorbell:t.fd t.buf off (Bytes.length t.buf - off) with
      | 0 -> -1
      | n ->
        t.len <- t.len + n;
        n)
    | None -> (
      match Unix.read t.fd t.buf off (Bytes.length t.buf - off) with
      | n ->
        t.len <- t.len + n;
        n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> -1
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) -> 0)

  (* A poll eases off the core between looks: a ring poll is a few
     loads, and a PE spinning on a shared core slows its producer. *)
  let rec spin t deadline =
    match fill t with
    | -1 ->
      if Mimd_obs.Clock.now_ns () < deadline then begin
        Domain.cpu_relax ();
        spin t deadline
      end
      else -1
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
      park t
    end

  (* A ring reader raises its flag and looks once more before it
     blocks, so a frame published meanwhile is either seen here or
     rings the doorbell.  At end of stream it still takes what the
     peer published before it went. *)
  and park t =
    match t.rings with
    | Some (rx, _) when Spsc.park_reader rx > 0 -> fill t
    | Some _ ->
      let live = doorbell t in
      (match fill t with -1 -> if live then park t else 0 | n -> n)
    | None -> (
      select_on [ t.fd ] [];
      match fill t with -1 -> wait t | n -> n)

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

let ring_link t ~proc ~peer =
  Link.make
    ~rings:
      ( Spsc.ring t.rings (ring_index ~procs:t.procs peer proc),
        Spsc.ring t.rings (ring_index ~procs:t.procs proc peer) )
    (link t ~proc ~peer)

(* The wire side of a link is transport-independent: a row of ring
   links over a socketpair mesh ([ring_row]), or anything that can map
   a peer index to a connected stream fd ([row]), gets the same frames,
   the same [Link_down] classification and the same tracing, and
   {!Value_run.of_links} matches frames to recvs over it.  [Mesh_tcp]
   reuses [row] over dialed TCP connections.  A row outlives a call:
   its links keep their buffers and spin budgets, and [settle] proves
   a call left nothing on them for the next one. *)
type row = {
  proc : int;
  links : Link.t option array;
  mutable pulled : int;  (* frames pulled this call *)
  mutable delivered : int;  (* frames a recv returned this call *)
}

let row_of ~procs ~proc link =
  {
    proc;
    links = Array.init procs (fun peer -> if peer = proc then None else Some (link peer));
    pulled = 0;
    delivered = 0;
  }

let row ~procs ~proc ~(link : int -> Unix.file_descr) =
  row_of ~procs ~proc (fun peer -> Link.create (link peer))

let ring_row t ~proc = row_of ~procs:t.procs ~proc (fun peer -> ring_link t ~proc ~peer)

let link_to row peer =
  match row.links.(peer) with Some l -> l | None -> invalid_arg "Mesh_sock: self link"

let read row src l =
  match Link.pull l with
  | Ok frame -> frame
  | Error error -> raise (Link_down { proc = row.proc; peer = src; error })

(* A dead peer on the *send* side: SIGPIPE is ignored process-wide, so
   the write surfaces as EPIPE/ECONNRESET.  Classify it as the link
   going down, same as EOF on the read side — it is the same
   environmental event, and respawn supervision keys off the
   [Link_down] rendering. *)
let write row dst ~node ~iter v =
  try Link.send (link_to row dst) ~node ~iter v
  with Unix.Unix_error ((EPIPE | ECONNRESET), _, _) ->
    raise (Link_down { proc = row.proc; peer = dst; error = Wire.Closed })

let row_chans row =
  let traced = Trace.is_enabled () in
  row.pulled <- 0;
  row.delivered <- 0;
  let send ~dst ~node ~iter (v : Value_run.payload) =
    if traced then
      Trace.span ~cat:"dist" ~args:[ ("dst", string_of_int dst) ] "dist.send" (fun () ->
          write row dst ~node ~iter v)
    else write row dst ~node ~iter v
  in
  let next ~src =
    let l = link_to row src in
    row.pulled <- row.pulled + 1;
    if not traced then read row src l
    else begin
      let parks = Link.parks l and start_ns = Mimd_obs.Clock.now_ns () in
      let record () =
        Trace.record ~cat:"dist"
          ~args:[ ("src", string_of_int src); ("parked", string_of_bool (Link.parks l > parks)) ]
          ~name:"dist.recv" ~start_ns ~end_ns:(Mimd_obs.Clock.now_ns ()) ()
      in
      match read row src l with
      | frame ->
        record ();
        frame
      | exception e ->
        record ();
        raise e
    end
  in
  let chans = Value_run.of_links ~procs:(Array.length row.links) ~send ~next in
  {
    chans with
    recv =
      (fun ~src ~node ~iter ->
        let v = chans.recv ~src ~node ~iter in
        row.delivered <- row.delivered + 1;
        v);
  }

(* No real tag is negative, so this one marks the end of a call. *)
let end_tag = (-1, -1)

(* Every PE sends the end marker to every peer, then reads each link up
   to the peer's marker: a link is FIFO, so whatever comes before it
   is a frame of this call that nobody received.  With the frames
   pulled but never received (left in the stash) that is the count. *)
let settle row =
  let stashed = row.pulled - row.delivered in
  let node, iter = end_tag in
  Array.iteri
    (fun dst l -> if Option.is_some l then write row dst ~node ~iter (Single 0.0))
    row.links;
  let unread = ref stashed in
  Array.iteri
    (fun src -> function
      | None -> ()
      | Some l ->
        while fst (read row src l) <> end_tag do
          incr unread
        done)
    row.links;
  !unread
