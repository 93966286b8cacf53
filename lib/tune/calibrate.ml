module Cost_model = Mimd_machine.Cost_model
module Trace = Mimd_obs.Trace

type sample = { src : int; dst : int; cost : float }

type t = {
  procs : int;
  alpha : float;
  mutable updates : int;
  ewma : float array array;  (* nan = link never observed *)
}

let create ?(alpha = 0.3) ~procs () =
  if procs < 1 then invalid_arg "Calibrate.create: procs < 1";
  if not (alpha > 0.0 && alpha <= 1.0) then
    invalid_arg "Calibrate.create: alpha outside (0, 1]";
  { procs; alpha; updates = 0; ewma = Array.make_matrix procs procs Float.nan }

let procs t = t.procs
let updates t = t.updates

let observe t samples =
  List.iter
    (fun s ->
      if
        s.src <> s.dst
        && s.src >= 0 && s.src < t.procs
        && s.dst >= 0 && s.dst < t.procs
        && Float.is_finite s.cost && s.cost >= 0.0
      then begin
        let cur = t.ewma.(s.src).(s.dst) in
        t.ewma.(s.src).(s.dst) <-
          (if Float.is_nan cur then s.cost
           else ((1.0 -. t.alpha) *. cur) +. (t.alpha *. s.cost))
      end)
    samples;
  if samples <> [] then t.updates <- t.updates + 1

let observed_links t =
  let n = ref 0 in
  Array.iter (Array.iter (fun v -> if not (Float.is_nan v) then incr n)) t.ewma;
  !n

let observed_max t =
  Array.fold_left
    (fun acc row ->
      Array.fold_left (fun acc v -> if Float.is_nan v then acc else max acc v) acc row)
    0.0 t.ewma

(* Links never observed (extra flow processors, say) are priced at the fallback: the caller's assumed k, or
   the worst observed link — the conservative upper bound either way. *)
let matrix ?fallback t =
  let fb =
    match fallback with
    | Some k -> k
    | None -> max 1 (int_of_float (Float.round (observed_max t)))
  in
  Array.init t.procs (fun i ->
      Array.init t.procs (fun j ->
          if i = j then 0
          else
            let v = t.ewma.(i).(j) in
            if Float.is_nan v then fb else max 0 (int_of_float (Float.round v))))

let model ?fallback t = Cost_model.matrix (matrix ?fallback t)

let measured t =
  Array.map (Array.map (fun v -> if Float.is_nan v then 0.0 else v)) t.ewma

(* ------------------------------------------------------------------ *)
(* Sample sources                                                      *)

let samples_of_matrix m =
  let out = ref [] in
  Array.iteri
    (fun i row ->
      Array.iteri (fun j c -> if i <> j && c > 0.0 then out := { src = i; dst = j; cost = c } :: !out) row)
    m;
  List.rev !out

(* The per-PE [run.send]/[run.recv] spans the value runtime records
   (domain mesh and, via absorbed child captures, the socket mesh):
   each span carries the local PE plus the far endpoint, and its
   duration is what that end of the message actually cost — the recv
   side's wait dominates and tracks the one-way latency.  [cycle_ns]
   converts wall time to the scheduler's abstract cycles (see
   {!Mimd_dist.Linkprobe.calibrate_cycle_ns}). *)
let samples_of_trace ~cycle_ns () =
  if cycle_ns <= 0.0 then invalid_arg "Calibrate.samples_of_trace: cycle_ns <= 0";
  Trace.fold_completed ~init:[] ~f:(fun acc ~name ~cat:_ ~tid:_ ~dur_ns ~args ->
      let field k = Option.bind (List.assoc_opt k args) int_of_string_opt in
      let cost = float_of_int dur_ns /. cycle_ns in
      match name with
      | "run.send" -> (
        match (field "pe", field "dst") with
        | Some pe, Some dst -> { src = pe; dst; cost } :: acc
        | _ -> acc)
      | "run.recv" -> (
        match (field "pe", field "src") with
        | Some pe, Some src -> { src; dst = pe; cost } :: acc
        | _ -> acc)
      | _ -> acc)

(* ------------------------------------------------------------------ *)
(* Persistence: a line-oriented text file under the cache dir          *)

let format_version = 1

(* Same resolution order as the server's disk cache, duplicated here
   because this library sits below [Mimd_server] in the build. *)
let default_dir () =
  let getenv v = match Sys.getenv_opt v with Some "" | None -> None | s -> s in
  match getenv "XDG_CACHE_HOME" with
  | Some base -> Filename.concat base "mimdloop"
  | None -> (
    match getenv "HOME" with
    | Some home -> Filename.concat home (Filename.concat ".cache" "mimdloop")
    | None -> Filename.concat (Filename.get_temp_dir_name ()) "mimdloop-cache")

let default_path () = Filename.concat (default_dir ()) "calibration.txt"

let save t ~path =
  Mimd_util.Fs.mkdir_p (Filename.dirname path);
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_text tmp (fun oc ->
      Printf.fprintf oc "mimdtune-calibration %d\n" format_version;
      Printf.fprintf oc "procs %d\n" t.procs;
      Printf.fprintf oc "alpha %h\n" t.alpha;
      Printf.fprintf oc "updates %d\n" t.updates;
      Array.iteri
        (fun i row ->
          Array.iteri
            (fun j v -> if i <> j && not (Float.is_nan v) then Printf.fprintf oc "%d %d %h\n" i j v)
            row)
        t.ewma);
  Sys.rename tmp path

let load ~path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | src -> (
    let lines = String.split_on_char '\n' src in
    match lines with
    | header :: rest when String.starts_with ~prefix:"mimdtune-calibration " header -> (
      let kv = Hashtbl.create 8 in
      let links = ref [] in
      let malformed = ref None in
      List.iter
        (fun line ->
          let line = String.trim line in
          if line <> "" && !malformed = None then
            match String.split_on_char ' ' line with
            | [ ("procs" | "alpha" | "updates") as k; v ] -> Hashtbl.replace kv k v
            | [ i; j; v ] -> (
              match (int_of_string_opt i, int_of_string_opt j, float_of_string_opt v) with
              | Some i, Some j, Some v -> links := (i, j, v) :: !links
              | _ -> malformed := Some line)
            | _ -> malformed := Some line)
        rest;
      match !malformed with
      | Some line -> Error (Printf.sprintf "malformed calibration line %S" line)
      | None -> (
        let int_field k = Option.bind (Hashtbl.find_opt kv k) int_of_string_opt in
        let float_field k = Option.bind (Hashtbl.find_opt kv k) float_of_string_opt in
        match (int_field "procs", float_field "alpha") with
        | Some procs, Some alpha when procs >= 1 && alpha > 0.0 && alpha <= 1.0 ->
          let t = create ~alpha ~procs () in
          t.updates <- Option.value ~default:0 (int_field "updates");
          List.iter
            (fun (i, j, v) ->
              if i >= 0 && i < procs && j >= 0 && j < procs && i <> j then
                t.ewma.(i).(j) <- v)
            !links;
          Ok t
        | _ -> Error "calibration file missing procs/alpha header"))
    | _ -> Error "not a mimdtune calibration file")

let pp ppf t =
  Format.fprintf ppf "calibration(p=%d, alpha=%.2f, %d update(s), %d/%d link(s) observed)"
    t.procs t.alpha t.updates (observed_links t)
    (t.procs * (t.procs - 1))
