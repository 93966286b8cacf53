module Clock = Mimd_obs.Clock

type link = {
  a : int;
  b : int;
  rtt_ns : float;
  one_way_ns : float;
  effective_k : float;
}

type t = { cycle_ns : float; links : link list }

(* One "cycle" of the paper's machine model is one unit of node
   latency — in our value runtime, roughly one Compute instruction:
   a couple of hashtable operations and a float evaluation.  Timing
   that mix gives the denominator that converts a measured wire
   latency into the scheduler's unit. *)
let calibrate_cycle_ns () =
  let tbl : (int * int, float) Hashtbl.t = Hashtbl.create 256 in
  let n = 200_000 in
  let acc = ref 1.0 in
  let t0 = Clock.now_ns () in
  for i = 0 to n - 1 do
    let key = (i land 63, i) in
    Hashtbl.replace tbl key !acc;
    (match Hashtbl.find_opt tbl key with
    | Some v -> acc := (v *. 1.0000001) +. 0.001
    | None -> ());
    if i land 4095 = 0 then Hashtbl.reset tbl
  done;
  ignore (Sys.opaque_identity !acc);
  float_of_int (Clock.now_ns () - t0) /. float_of_int n

let stop_tag = (-1, -1)

(* The echo child: a real Value_run peer in miniature — same Wire
   frames, same tagged-float payloads — so the measured cost includes
   marshalling, framing, and both kernel crossings. *)
let echo_child fd =
  let rec loop () =
    match (Wire.read fd : ((int * int) * float, Wire.error) result) with
    | Ok (tag, _) when tag = stop_tag -> Unix._exit 0
    | Ok msg ->
      Wire.write fd msg;
      loop ()
    | Error _ -> Unix._exit 0
  in
  loop ()

let median samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a.(Array.length a / 2)

(* Round-trip a tagged float [rounds] times over a forked echo child
   and take the median.  Must run before any domain is spawned. *)
let probe_one ?(rounds = 200) ~a ~b () =
  let p, c = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.fork () with
  | 0 ->
    (try Unix.close p with Unix.Unix_error _ -> ());
    echo_child c
  | pid ->
    (try Unix.close c with Unix.Unix_error _ -> ());
    (* Warm-up round covers fork cold start and first-touch costs. *)
    Wire.write p ((0, 0), 0.0);
    ignore (Wire.read_exn p : (int * int) * float);
    let samples = ref [] in
    for i = 1 to rounds do
      let t0 = Clock.now_ns () in
      Wire.write p ((0, i), float_of_int i);
      ignore (Wire.read_exn p : (int * int) * float);
      samples := float_of_int (Clock.now_ns () - t0) :: !samples
    done;
    Wire.write p (stop_tag, 0.0);
    ignore (Unix.waitpid [] pid);
    (try Unix.close p with Unix.Unix_error _ -> ());
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
