module Clock = Mimd_obs.Clock
module Value_run = Mimd_runtime.Value_run
module Wire = Mimd_runtime.Wire
module Mesh_sock = Mimd_runtime.Mesh_sock

type link = {
  a : int;
  b : int;
  rtt_ns : float;
  one_way_ns : float;
  effective_k : float;
}

type t = { cycle_ns : float; links : link list }

(* The schedule and the lowered form take about 8 MB of heap; timed in
   a spawned member, they never grow the caller's. *)
let calibrate_cycle_ns () =
  let pid, ctl = Member.spawn Member.Cycle_timer in
  let got : (float, Wire.error) result = Wire.read ctl in
  Unix.close ctl;
  ignore (Unix.waitpid [] pid);
  match got with
  | Ok ns -> ns
  | Error _ -> failwith "Linkprobe.calibrate_cycle_ns: the timing run failed"

let median samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Round-trip a tagged float [rounds] times over a spawned echo peer
   on a one-pair mesh and take the median.  Closing this end stops the
   peer. *)
let probe_one ?(rounds = 200) ~a ~b () =
  let mesh = Mesh_sock.create ~procs:2 () and peer = ref None in
  Fun.protect ~finally:(fun () ->
      Mesh_sock.close_all mesh;
      Option.iter (fun (pid, ctl) -> Unix.close ctl; ignore (Unix.waitpid [] pid)) !peer)
  @@ fun () ->
  peer := Some (Member.spawn (Member.Echo (Mesh_sock.part mesh ~proc:1)));
  Mesh_sock.close_link mesh ~proc:1 ~peer:0;
  let link = Mesh_sock.ring_link mesh ~proc:0 ~peer:1 in
  let round i =
    Mesh_sock.Link.send link ~node:0 ~iter:i (Value_run.Single (float_of_int i));
    match Mesh_sock.Link.pull link with
    | Ok _ -> ()
    | Error e -> raise (Wire.Wire_error e)
  in
  (* Warm-up round covers the peer's start and first-touch costs. *)
  round 0;
  let samples = ref [] in
  for i = 1 to rounds do
    let t0 = Clock.now_ns () in
    round i;
    samples := float_of_int (Clock.now_ns () - t0) :: !samples
  done;
  let rtt_ns = median !samples in
  { a; b; rtt_ns; one_way_ns = rtt_ns /. 2.0; effective_k = 0.0 }

let probe ?rounds ?(procs = 2) () =
  if procs < 2 then invalid_arg "Linkprobe.probe: procs < 2";
  let cycle_ns = calibrate_cycle_ns () in
  let links = ref [] in
  for i = 0 to procs - 1 do
    for j = i + 1 to procs - 1 do
      let l = probe_one ?rounds ~a:i ~b:j () in
      links := { l with effective_k = l.one_way_ns /. cycle_ns } :: !links
    done
  done;
  { cycle_ns; links = List.rev !links }

(* The scalar k a probe argues for: the dearest link's effective k,
   rounded, never below 1 (a zero-cost wire would let the scheduler
   spread every dependence across processors for free). *)
let measured_k t =
  let worst = List.fold_left (fun acc l -> Float.max acc l.effective_k) 0.0 t.links in
  max 1 (int_of_float (Float.round worst))

let render ?assumed_k t =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "link probe: 1 cycle ~ %.1f ns on this host\n" t.cycle_ns);
  List.iter
    (fun l ->
      Buffer.add_string b
        (Printf.sprintf "  PE%d <-> PE%d: rtt %.1f us, one-way %.1f us, effective k ~ %.0f%s\n"
           l.a l.b (l.rtt_ns /. 1e3) (l.one_way_ns /. 1e3) l.effective_k
           (match assumed_k with
           | None -> ""
           | Some k -> Printf.sprintf " (scheduler assumed k = %d)" k)))
    t.links;
  (match (assumed_k, t.links) with
  | Some k, l :: _ when l.effective_k > float_of_int (4 * max 1 k) ->
    Buffer.add_string b
      "  note: measured message cost far exceeds the assumed k; schedule for this wire\n\
      \  at the measured k instead (mimdloop schedule|run-dist --auto-k).\n"
  | _ -> ());
  Buffer.contents b
