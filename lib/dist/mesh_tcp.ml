module Value_run = Mimd_runtime.Value_run
module Wire = Mimd_runtime.Wire
module Mesh_sock = Mimd_runtime.Mesh_sock

(* The TCP face of the processor mesh.  Where a {!Mesh_sock} member
   inherits one socketpair per peer across its spawn, this transport
   gives every PE its own listener and has the members *dial* each
   other once started — which is exactly the shape a multi-host
   deployment needs (peers that rendezvous over addresses, not
   inherited descriptors).  A single parent on loopback is the CI
   configuration; the roster pins explicit HOST:PORT addresses.  The
   interface states the connection plan (deadlock-free by induction)
   and the handshake. *)

type addr = { host : string; port : int }

let addr_to_string { host; port } = Printf.sprintf "%s:%d" host port

let addr_of_string s =
  match String.rindex_opt s ':' with
  | None -> Error (Printf.sprintf "%S is not HOST:PORT" s)
  | Some i -> (
    let host = String.sub s 0 i in
    let p = String.sub s (i + 1) (String.length s - i - 1) in
    match int_of_string_opt p with
    | Some port when port >= 0 && port < 65536 ->
      Ok { host = (if host = "" then "127.0.0.1" else host); port }
    | _ -> Error (Printf.sprintf "bad port in %S" s))

exception
  Handshake_failure of { proc : int; peer : int; reason : string }
  (* A structured rendezvous failure: fingerprint or (src, dst)
     mismatch.  Raised on both sides of the bad connection. *)

let () =
  Printexc.register_printer (function
    | Handshake_failure { proc; peer; reason } ->
      Some
        (Printf.sprintf "TCP handshake failed between PE %d and PE %d: %s" proc peer
           reason)
    | _ -> None)

(* ---------------------------------------------------------------- *)
(* Handshake frames (exposed for the framing tests)                   *)

type hello = { magic : string; fingerprint : string; src : int; dst : int }
type ack = Accepted | Rejected of string

let hello_magic = "MDH1"

let send_hello fd ~fingerprint ~src ~dst =
  Wire.write fd { magic = hello_magic; fingerprint; src; dst }

(* Acceptor side: read the dialer's hello, check it names us and our
   schedule, ack either way.  Returns the dialer's PE index. *)
let accept_hello fd ~fingerprint ~self =
  match (Wire.read fd : (hello, Wire.error) result) with
  | Error e ->
    raise
      (Handshake_failure
         { proc = self; peer = -1; reason = "hello frame: " ^ Wire.error_to_string e })
  | Ok h ->
    let reject reason =
      (try Wire.write fd (Rejected reason) with _ -> ());
      raise (Handshake_failure { proc = self; peer = h.src; reason })
    in
    if h.magic <> hello_magic then reject "bad hello magic"
    else if h.dst <> self then
      reject (Printf.sprintf "dialer thinks it reached PE %d, this is PE %d" h.dst self)
    else if h.fingerprint <> fingerprint then
      reject
        (Printf.sprintf "schedule fingerprint mismatch (ours %s.., theirs %s..)"
           (String.sub fingerprint 0 (min 8 (String.length fingerprint)))
           (String.sub h.fingerprint 0 (min 8 (String.length h.fingerprint))));
    Wire.write fd Accepted;
    h.src

let read_ack fd ~proc ~peer =
  match (Wire.read fd : (ack, Wire.error) result) with
  | Ok Accepted -> ()
  | Ok (Rejected reason) -> raise (Handshake_failure { proc; peer; reason })
  | Error e ->
    raise
      (Handshake_failure { proc; peer; reason = "ack frame: " ^ Wire.error_to_string e })

(* ---------------------------------------------------------------- *)
(* Dialing with capped exponential backoff                            *)

let set_nodelay fd =
  try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ()

(* Both buffers of a link hold what a ring holds, {!Mesh_sock.buffer_bytes}:
   far more than [Value_run.default_channel_capacity] frames, so a TCP
   link is never tighter than the bound the protocol simulation
   proves.  Set before
   connect on a dialer and before listen on a listener (an accepted
   socket inherits the listener's sizes), so the receive window is
   scaled for them. *)
let size_buffers fd =
  List.iter
    (fun opt ->
      try Unix.setsockopt_int fd opt Mesh_sock.buffer_bytes with Unix.Unix_error _ -> ())
    [ Unix.SO_SNDBUF; Unix.SO_RCVBUF ]

(* The one resolver of roster hosts, for binding and dialing alike:
   an IPv4 literal as is, any other name through getaddrinfo. *)
let resolve host =
  match Unix.inet_addr_of_string host with
  | inet -> inet
  | exception Failure _ -> (
    match Unix.getaddrinfo host "" [ Unix.AI_FAMILY Unix.PF_INET ] with
    | { Unix.ai_addr = Unix.ADDR_INET (inet, _); _ } :: _ -> inet
    | _ -> invalid_arg (Printf.sprintf "Mesh_tcp: cannot resolve host %S" host))

let dial_with_backoff ?(deadline = 15.0) addr =
  let inet = resolve addr.host in
  let until = Unix.gettimeofday () +. deadline in
  let rec go pause =
    let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    size_buffers fd;
    match Unix.connect fd (Unix.ADDR_INET (inet, addr.port)) with
    | () ->
      set_nodelay fd;
      fd
    | exception
        Unix.Unix_error
          ((Unix.ECONNREFUSED | Unix.ETIMEDOUT | Unix.EHOSTUNREACH | Unix.ENETUNREACH), _, _)
      ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Unix.gettimeofday () +. pause > until then
        failwith (Printf.sprintf "connect to %s: retry deadline elapsed" (addr_to_string addr))
      else begin
        Unix.sleepf pause;
        (* capped exponential backoff: 10 ms doubling to 500 ms *)
        go (Float.min 0.5 (pause *. 2.0))
      end
    | exception e ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      raise e
  in
  go 0.01

(* ---------------------------------------------------------------- *)
(* The mesh                                                           *)

type t = {
  procs : int;
  fingerprint : string;
  listeners : Unix.file_descr array;  (* PE i's listener, bound before the spawn *)
  addrs : addr array;  (* where PE i listens (host and port resolved) *)
}

type conns = { fds : Unix.file_descr option array }

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* PE [proc]'s listener on [spec]; an address that cannot be bound
   closes the socket and names the PE and the address. *)
let bind_listener ~proc spec =
  let inet = resolve spec.host in
  let fd = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
  match
    (try Unix.setsockopt fd Unix.SO_REUSEADDR true with Unix.Unix_error _ -> ());
    size_buffers fd;
    Unix.bind fd (Unix.ADDR_INET (inet, spec.port));
    Unix.listen fd 16;
    Unix.getsockname fd
  with
  | Unix.ADDR_INET (_, port) -> (fd, { spec with port })
  | _ -> (fd, spec)
  | exception Unix.Unix_error (err, _, _) ->
    close_quietly fd;
    invalid_arg
      (Printf.sprintf "Mesh_tcp: PE %d cannot listen on %s: %s" proc (addr_to_string spec)
         (Unix.error_message err))

(* Resolve every host, then bind every PE's listener, in the parent
   before any member starts: a bad roster fails here, naming the host, with
   nothing bound yet, and the dialers see the resolved literal.  An
   address that cannot be bound closes every listener bound before it.
   Binding first is what lets [create] hand out ephemeral ports
   (port 0) on loopback without a race, and what guarantees a
   dialer's backoff loop always terminates once the fleet is up. *)
let create ?roster ~fingerprint ~procs () =
  if procs < 1 then invalid_arg "Mesh_tcp.create: procs < 1";
  let specs =
    match roster with
    | None -> Array.init procs (fun _ -> { host = "127.0.0.1"; port = 0 })
    | Some l ->
      if List.length l <> procs then
        invalid_arg
          (Printf.sprintf "Mesh_tcp.create: roster has %d address(es) for %d PE(s)"
             (List.length l) procs);
      Array.of_list l
  in
  let specs =
    Array.map (fun spec -> { spec with host = Unix.string_of_inet_addr (resolve spec.host) }) specs
  in
  let rec bind_all acc proc =
    if proc = procs then Array.of_list (List.rev acc)
    else
      match bind_listener ~proc specs.(proc) with
      | listener -> bind_all (listener :: acc) (proc + 1)
      | exception e ->
        List.iter (fun (fd, _) -> close_quietly fd) acc;
        raise e
  in
  let bound = bind_all [] 0 in
  { procs; fingerprint; listeners = Array.map fst bound; addrs = Array.map snd bound }

let procs t = t.procs

let close_parent t = Array.iter close_quietly t.listeners

let listener t ~proc = t.listeners.(proc)

(* Establish the full row of connections for PE [proc]: dial the
   smaller indices (hello + ack), then accept the larger ones (in
   whatever order they arrive — the hello's [src] routes each).
   [fingerprint] overrides the mesh's own only for fault injection. *)
let connect_all ?fingerprint t ~proc =
  let fingerprint = Option.value ~default:t.fingerprint fingerprint in
  let fds = Array.make t.procs None in
  for peer = 0 to proc - 1 do
    let fd = dial_with_backoff t.addrs.(peer) in
    send_hello fd ~fingerprint ~src:proc ~dst:peer;
    (match read_ack fd ~proc ~peer with
    | () -> ()
    | exception e ->
      close_quietly fd;
      raise e);
    fds.(peer) <- Some fd
  done;
  for _ = proc + 1 to t.procs - 1 do
    let fd, _ = Unix.accept ~cloexec:true t.listeners.(proc) in
    set_nodelay fd;
    match accept_hello fd ~fingerprint ~self:proc with
    | src -> fds.(src) <- Some fd
    | exception e ->
      close_quietly fd;
      raise e
  done;
  close_quietly t.listeners.(proc);
  { fds }

let link c ~peer =
  match c.fds.(peer) with
  | Some fd -> fd
  | None -> invalid_arg "Mesh_tcp: self link or unconnected peer"
