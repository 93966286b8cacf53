(* Spans recorded by the benchmark around each layer call it makes.

   A span has a name, start and end (monotonic ns), the span that
   encloses it on the same thread, and the id of the op it belongs to.
   Spans are kept in memory and analysed when the run ends; recording
   is off unless [enable] was called, so untraced runs pay one branch
   per call. *)

type t = { id : int; name : string; op : int; parent : int; t0 : int; t1 : int }

let on = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = ref 0

(* Open spans and the current op, per thread. *)
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 8
let ops : (int, int) Hashtbl.t = Hashtbl.create 8

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let tid () = Thread.id (Thread.self ())
let enable () = on := true
let disable () = on := false

let set_op op = if !on then locked (fun () -> Hashtbl.replace ops (tid ()) op)

let span name f =
  if not !on then f ()
  else begin
    let id, parent, op =
      locked (fun () ->
          let me = tid () in
          let id = !next_id in
          incr next_id;
          let stack = Option.value ~default:[] (Hashtbl.find_opt stacks me) in
          Hashtbl.replace stacks me (id :: stack);
          ( id,
            (match stack with p :: _ -> p | [] -> -1),
            Option.value ~default:(-1) (Hashtbl.find_opt ops me) ))
    in
    let t0 = Mimd_obs.Clock.now_ns () in
    Fun.protect f ~finally:(fun () ->
        let t1 = Mimd_obs.Clock.now_ns () in
        locked (fun () ->
            let me = tid () in
            (match Hashtbl.find_opt stacks me with
            | Some (_ :: rest) -> Hashtbl.replace stacks me rest
            | _ -> ());
            recorded := { id; name; op; parent; t0; t1 } :: !recorded))
  end

let all () = locked (fun () -> List.rev !recorded)

(* Self time of every span: its duration minus the part its direct
   children cover (children never outlive their parent). *)
let self_times spans =
  let child_ns = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_ns s.parent
          (s.t1 - s.t0 + Option.value ~default:0 (Hashtbl.find_opt child_ns s.parent)))
    spans;
  List.map
    (fun s -> (s, s.t1 - s.t0 - Option.value ~default:0 (Hashtbl.find_opt child_ns s.id)))
    spans

(* Per-op self time of [name], in ms, for every op that entered it,
   with the op's id. *)
let per_op_self_ms_by_op selfs name =
  let by_op = Hashtbl.create 256 in
  List.iter
    (fun (s, self) ->
      if s.name = name then
        Hashtbl.replace by_op s.op
          (self + Option.value ~default:0 (Hashtbl.find_opt by_op s.op)))
    selfs;
  Hashtbl.fold (fun op ns acc -> (op, float_of_int ns /. 1e6) :: acc) by_op []

let per_op_self_ms selfs name = List.map snd (per_op_self_ms_by_op selfs name)

(* Share of the root spans' time ([root] names them) that the layer
   spans under them account for. *)
let layer_share selfs ~root =
  let total, glue =
    List.fold_left
      (fun (total, glue) (s, self) ->
        if s.name = root then (total + (s.t1 - s.t0), glue + self) else (total, glue))
      (0, 0) selfs
  in
  if total = 0 then 0.0 else float_of_int (total - glue) /. float_of_int total

(* Chrome trace_event JSON of the spans, one track per op. *)
let export path spans =
  let oc = open_out path in
  output_string oc "[";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s\n{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
        (if i = 0 then "" else ",")
        s.name (max 0 s.op)
        (float_of_int s.t0 /. 1e3)
        (float_of_int (s.t1 - s.t0) /. 1e3)
        s.id s.parent)
    spans;
  output_string oc "\n]\n";
  close_out oc
