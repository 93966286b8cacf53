type event =
  | Complete of {
      name : string;
      cat : string;
      ts_ns : int;
      dur_ns : int;
      id : int;
      parent : int;
      args : (string * string) list;
    }
  | Instant of { name : string; ts_ns : int; args : (string * string) list }
  | Thread_name of { name : string }

(* One buffer per domain, registered on first use and kept for the
   life of the process (pool workers trace many jobs into the same
   buffer).  The mutex serialises appends against exports; appends
   only happen while tracing is on, so the disabled path never touches
   it. *)
type buffer = {
  tid : int;
  mutex : Mutex.t;
  mutable events : event array;
  mutable len : int;
  mutable stack : int list;  (* open span ids, innermost first *)
  mutable lost : int;
}

let max_events_per_buffer = 1 lsl 20

let enabled = Atomic.make false
let next_span_id = Atomic.make 1

let registry : buffer list ref = ref []
let registry_mutex = Mutex.create ()

let make_buffer () =
  let buf =
    {
      tid = (Domain.self () :> int);
      mutex = Mutex.create ();
      events = [||];
      len = 0;
      stack = [];
      lost = 0;
    }
  in
  Mutex.lock registry_mutex;
  registry := buf :: !registry;
  Mutex.unlock registry_mutex;
  buf

let key : buffer Domain.DLS.key = Domain.DLS.new_key make_buffer
let buffer () = Domain.DLS.get key

(* Streaming sink (forward declaration: [push] may trigger a flush). *)
let sink_flush_hook : (buffer -> unit) ref = ref (fun _ -> ())

let push buf ev =
  Mutex.lock buf.mutex;
  if buf.len >= max_events_per_buffer then buf.lost <- buf.lost + 1
  else begin
    if buf.len = Array.length buf.events then begin
      let cap = max 256 (2 * Array.length buf.events) in
      let bigger = Array.make cap ev in
      Array.blit buf.events 0 bigger 0 buf.len;
      buf.events <- bigger
    end;
    buf.events.(buf.len) <- ev;
    buf.len <- buf.len + 1
  end;
  Mutex.unlock buf.mutex;
  !sink_flush_hook buf

let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

let clear () =
  Mutex.lock registry_mutex;
  let bufs = !registry in
  Mutex.unlock registry_mutex;
  List.iter
    (fun buf ->
      Mutex.lock buf.mutex;
      buf.events <- [||];
      buf.len <- 0;
      buf.lost <- 0;
      Mutex.unlock buf.mutex)
    bufs

let dropped () =
  Mutex.lock registry_mutex;
  let bufs = !registry in
  Mutex.unlock registry_mutex;
  List.fold_left (fun acc b -> acc + b.lost) 0 bufs

let set_thread_name name =
  if Atomic.get enabled then push (buffer ()) (Thread_name { name })

let span ?(cat = "") ?(args = []) name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let buf = buffer () in
    let id = Atomic.fetch_and_add next_span_id 1 in
    let parent = match buf.stack with [] -> 0 | p :: _ -> p in
    buf.stack <- id :: buf.stack;
    let t0 = Clock.now_ns () in
    let finish () =
      let t1 = Clock.now_ns () in
      (match buf.stack with _ :: rest -> buf.stack <- rest | [] -> ());
      push buf (Complete { name; cat; ts_ns = t0; dur_ns = t1 - t0; id; parent; args })
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

let record ?(cat = "") ?(args = []) ~name ~start_ns ~end_ns () =
  if Atomic.get enabled then begin
    let buf = buffer () in
    let id = Atomic.fetch_and_add next_span_id 1 in
    let parent = match buf.stack with [] -> 0 | p :: _ -> p in
    push buf
      (Complete
         { name; cat; ts_ns = start_ns; dur_ns = max 0 (end_ns - start_ns); id; parent; args })
  end

let instant ?(args = []) name =
  if Atomic.get enabled then
    push (buffer ()) (Instant { name; ts_ns = Clock.now_ns (); args })

(* ---------------------------------------------------------------- *)
(* Chrome trace_event JSON export (hand-rolled: this library depends
   on nothing, and the format is flat).                               *)

let add_escaped b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_string_field b k v =
  Buffer.add_char b '"';
  add_escaped b k;
  Buffer.add_string b "\":\"";
  add_escaped b v;
  Buffer.add_char b '"'

let add_args b pairs =
  Buffer.add_string b "\"args\":{";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      add_string_field b k v)
    pairs;
  Buffer.add_char b '}'

let render_event b ~base tid ev =
  match ev with
  | Thread_name { name } ->
    Buffer.add_string b
      (Printf.sprintf "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d," tid);
    add_args b [ ("name", name) ];
    Buffer.add_char b '}'
  | Instant { name; ts_ns; args } ->
    Buffer.add_char b '{';
    add_string_field b "name" name;
    Buffer.add_string b
      (Printf.sprintf ",\"ph\":\"i\",\"s\":\"t\",\"ts\":%.3f,\"pid\":1,\"tid\":%d,"
         (Clock.ns_to_us (ts_ns - base))
         tid);
    add_args b args;
    Buffer.add_char b '}'
  | Complete { name; cat; ts_ns; dur_ns; id; parent; args } ->
    Buffer.add_char b '{';
    add_string_field b "name" name;
    if cat <> "" then begin
      Buffer.add_char b ',';
      add_string_field b "cat" cat
    end;
    Buffer.add_string b
      (Printf.sprintf ",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
         (Clock.ns_to_us (ts_ns - base))
         (Clock.ns_to_us dur_ns) tid);
    add_args b
      ((("span_id", string_of_int id) :: ("parent_id", string_of_int parent) :: args));
    Buffer.add_char b '}'

(* ---------------------------------------------------------------- *)
(* Cross-process capture: a team member traces into its own buffers,
   captures them as plain data, ships them over its report channel,
   and the parent absorbs them so the export shows one merged
   timeline.  Absorbed events keep their own (offset) tids — monotonic
   clocks are per-boot, so parent and member stamps share a
   timebase.                                                          *)

type captured = (int * event) list

let absorbed : (int * event) list ref = ref []

let drain_buffers () =
  Mutex.lock registry_mutex;
  let bufs = !registry in
  Mutex.unlock registry_mutex;
  List.concat_map
    (fun buf ->
      Mutex.lock buf.mutex;
      let evs = List.init buf.len (fun i -> (buf.tid, buf.events.(i))) in
      Mutex.unlock buf.mutex;
      evs)
    bufs

let capture () = drain_buffers ()

let absorb ?(tid_offset = 0) captured =
  Mutex.lock registry_mutex;
  absorbed :=
    List.rev_append (List.rev_map (fun (tid, ev) -> (tid + tid_offset, ev)) captured)
      !absorbed;
  Mutex.unlock registry_mutex

(* [clear] above predates absorption; a full reset drops those too. *)
let clear () =
  clear ();
  Mutex.lock registry_mutex;
  absorbed := [];
  Mutex.unlock registry_mutex

let collect_all () =
  Mutex.lock registry_mutex;
  let extra = !absorbed in
  Mutex.unlock registry_mutex;
  drain_buffers () @ extra

let export () =
  let collected = collect_all () in
  let ts_of = function
    | Complete { ts_ns; _ } | Instant { ts_ns; _ } -> ts_ns
    | Thread_name _ -> 0
  in
  let base =
    List.fold_left
      (fun acc (_, ev) ->
        match ev with Thread_name _ -> acc | ev -> min acc (ts_of ev))
      max_int collected
  in
  let base = if base = max_int then 0 else base in
  let ordered =
    List.stable_sort
      (fun (_, a) (_, b) ->
        match (a, b) with
        | Thread_name _, Thread_name _ -> 0
        | Thread_name _, _ -> -1
        | _, Thread_name _ -> 1
        | a, b -> compare (ts_of a) (ts_of b))
      collected
  in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  Buffer.add_string b "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,";
  add_args b [ ("name", "mimdloop") ];
  Buffer.add_char b '}';
  List.iter
    (fun (tid, ev) ->
      Buffer.add_char b ',';
      render_event b ~base tid ev)
    ordered;
  Buffer.add_string b "]}";
  Buffer.contents b

(* ---------------------------------------------------------------- *)
(* Streaming sink: append-on-flush file output for long-running
   servers, where waiting for a clean exit (and one big [export])
   loses the whole capture on a kill.  The file is the same Chrome
   object, written incrementally; the trace_event "JSON Array Format"
   explicitly tolerates a missing closing bracket, so a file cut off
   by SIGKILL still loads.                                            *)

type sink = {
  path : string;
  oc : out_channel;
  threshold : int;
  base : int;  (* rebase stamp fixed at [set_sink] so batches agree *)
  sink_mutex : Mutex.t;
  mutable flushed : int;
}

let sink_state : sink option ref = ref None

let flush_sink () =
  match !sink_state with
  | None -> ()
  | Some s ->
    Mutex.lock s.sink_mutex;
    let still_open = match !sink_state with Some s' -> s' == s | None -> false in
    if not still_open then Mutex.unlock s.sink_mutex (* closed underneath us *)
    else begin
    (* Drain destructively: flushed events leave the buffers, so the
       sink and [export] are alternatives, not duplicates. *)
    Mutex.lock registry_mutex;
    let bufs = !registry in
    let extra = !absorbed in
    absorbed := [];
    Mutex.unlock registry_mutex;
    let batch =
      List.concat_map
        (fun buf ->
          Mutex.lock buf.mutex;
          let evs = List.init buf.len (fun i -> (buf.tid, buf.events.(i))) in
          buf.len <- 0;
          Mutex.unlock buf.mutex;
          evs)
        bufs
      @ extra
    in
    let b = Buffer.create 4096 in
    List.iter
      (fun (tid, ev) ->
        Buffer.add_string b ",\n";
        render_event b ~base:s.base tid ev;
        s.flushed <- s.flushed + 1)
      batch;
    Buffer.output_buffer s.oc b;
    flush s.oc;
    Mutex.unlock s.sink_mutex
    end

let () =
  sink_flush_hook :=
    fun buf ->
      match !sink_state with
      | None -> ()
      | Some s -> if buf.len >= s.threshold then flush_sink ()

let set_sink ?(threshold = 4096) path =
  (match !sink_state with Some _ -> invalid_arg "Trace.set_sink: sink already open" | None -> ());
  let oc = open_out path in
  let s =
    {
      path;
      oc;
      threshold = max 1 threshold;
      base = Clock.now_ns ();
      sink_mutex = Mutex.create ();
      flushed = 0;
    }
  in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  output_string oc "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,";
  let b = Buffer.create 64 in
  add_args b [ ("name", "mimdloop") ];
  Buffer.output_buffer oc b;
  output_string oc "}";
  flush oc;
  sink_state := Some s

let sink_path () = Option.map (fun s -> s.path) !sink_state
let sink_flushed () = match !sink_state with None -> 0 | Some s -> s.flushed

let close_sink () =
  match !sink_state with
  | None -> ()
  | Some s ->
    flush_sink ();
    Mutex.lock s.sink_mutex;
    sink_state := None;
    output_string s.oc "]}\n";
    close_out s.oc;
    Mutex.unlock s.sink_mutex
