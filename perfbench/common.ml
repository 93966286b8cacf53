(* Shared helpers: order statistics, timing, memory, the self-test's
   delay injection and the shape of one workload's result. *)

let now_ns () = Mimd_obs.Clock.now_ns ()
let ms_of_ns ns = float_of_int ns /. 1e6

(* Linear-interpolated quantile, [q] in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.0
  else begin
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))
  end

let median xs = quantile 0.5 xs

let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Remove a directory tree the benchmark made. *)
let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* VmHWM (peak resident set) of a process, in MiB; 0 when unreadable. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0.0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          let kb = String.trim v in
          let kb = String.sub kb 0 (String.index kb ' ') in
          float_of_string kb /. 1024.0
        | _ -> acc)
      0.0
      (String.split_on_char '\n' text)

(* Self-test hook: [--inject-delay NAME] makes the benchmark spin for a
   further 20% of every call it wraps as [NAME], so the benchmark's own
   gate can be shown to see a slowdown in exactly one layer. *)
let injected : string option ref = ref None

let spin_ns ns =
  let until = now_ns () + ns in
  while now_ns () < until do
    ()
  done

(* Wrap a layer call: a span while tracing, and the injected delay. *)
let layer name f =
  Span.span name (fun () ->
      match !injected with
      | Some n when n = name ->
        let t0 = now_ns () in
        let r = f () in
        spin_ns ((now_ns () - t0) / 5);
        r
      | _ -> f ())

(* A run is cut into blocks of whole decks (a deck being the fixed,
   seeded sequence of ops a workload repeats).  Each end-to-end timing
   is taken within every block and the run reports its median over the
   blocks: a busy period of the shared host that covers less than half
   of a run does not move it, while a cost that recurs in every block
   (a GC pause, a slow fork, a retry) does. *)
type block = { lat_ms : float list;  (** every completed op *) wall_s : float }

let block_since t0 lat_ms = { lat_ms; wall_s = float_of_int (now_ns () - t0) /. 1e9 }

(* Setup repeated [times] times; returns the last value and the median
   setup time in seconds. *)
let timed_setup ~times ?(discard = fun _ -> ()) f =
  let rec go i acc last =
    if i = times then (Option.get last, median acc)
    else begin
      Option.iter discard last;
      let t0 = now_ns () in
      let v = f () in
      go (i + 1) ((float_of_int (now_ns () - t0) /. 1e9) :: acc) (Some v)
    end
  in
  go 0 [] None

type quality = { sp_pct_mean : float; messages_total : int; code_instrs_total : int }

type result = {
  setup_s : float;
  op_ms : (string * float) list;  (** every completed op's latency, in run order *)
  blocks : block list;
  attempted : int;
  failed : int;
  quality : quality;
  peak_rss_mb : float;
  layers : (string * float * string) list;  (** per-layer metrics; traced runs *)
  notes : (string * string) list;  (** metadata reported beside the result *)
  problems : string list;  (** failed checks, each described *)
}
