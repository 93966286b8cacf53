(** Lightweight spans over the whole pipeline, exportable as Chrome
    [trace_event] JSON (load the file in [chrome://tracing] or
    {{:https://ui.perfetto.dev}Perfetto}).

    Tracing is a process-global switch, {e off} by default.  While it
    is off every entry point below is a single atomic load and a
    branch — no allocation, no clock read — so instrumentation can
    stay compiled into the hot paths permanently ([test_obs] pins
    this down: no allocation, at most 100 ns a call).  While it is on,
    each domain appends events to its own buffer under a per-buffer
    mutex, so concurrent workers never contend on shared trace state
    beyond that.

    Spans nest per domain: {!span} pushes onto a domain-local stack,
    and every event records its parent span's id (0 at top level) in
    its exported [args] — alongside the start/duration that Chrome's
    [ph:"X"] complete events carry natively.

    The span taxonomy used across the repo is documented in
    [docs/OBSERVABILITY.md]: [compile.*] for the scheduling pipeline,
    [serve.*] for the compile service's request path, [run.*] for
    real-domain execution, [sim.*] for the simulator. *)

val enable : unit -> unit
(** Turn the global switch on.  Events recorded before [enable] were
    dropped, not buffered. *)

val disable : unit -> unit

val is_enabled : unit -> bool

val clear : unit -> unit
(** Drop every buffered event in every domain's buffer (buffers stay
    registered; the switch is untouched). *)

val set_thread_name : string -> unit
(** Label the calling domain's track in the exported trace (e.g.
    ["PE0"], ["pool-worker"]).  No-op while tracing is off. *)

val span : ?cat:string -> ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f ()]; while tracing is on, the interval is
    recorded as a complete event (monotonic start/stop, the calling
    domain's track, the enclosing span as parent).  The span is
    recorded — with its true duration — even when [f] raises; the
    exception is re-raised.  While tracing is off this is exactly
    [f ()] after one atomic load: no allocation. *)

val record :
  ?cat:string ->
  ?args:(string * string) list ->
  name:string ->
  start_ns:int ->
  end_ns:int ->
  unit ->
  unit
(** A complete span whose interval was measured externally
    ({!Clock.now_ns} stamps), for durations that cross domains — e.g.
    queue wait measured from submit (reader domain) to dequeue (worker
    domain), recorded by the worker.  No-op while tracing is off. *)

val instant : ?args:(string * string) list -> string -> unit
(** A zero-duration marker event.  No-op while tracing is off. *)

val dropped : unit -> int
(** Events discarded because a domain's buffer hit its cap (tracing a
    pathologically long run).  0 in healthy captures. *)

val export : unit -> string
(** The whole capture as a Chrome trace JSON object:
    [{"traceEvents": [...], "displayTimeUnit": "ms"}].  Timestamps are
    microseconds rebased to the earliest event; every complete event
    carries [ph]/[ts]/[dur]/[pid]/[tid]/[name] plus [args] with the
    span and parent ids.  Thread-name metadata events label the
    tracks.  Intended to be called once workers are quiescent.
    Includes {!absorb}ed events; excludes anything already drained to
    a streaming sink. *)

(** {1 Cross-process capture}

    A team member (a process of the [Mimd_dist] socket runtime) traces
    into its own buffers; {!capture} snapshots them as marshalable
    plain data so the member can ship them over its report channel,
    and the parent {!absorb}s them into its own capture before
    {!export}.  Monotonic stamps are per-boot, so parent and member
    events share a timebase without rebasing. *)

type captured
(** A snapshot of every buffered event in this process.  Plain data:
    safe to [Marshal] across a process boundary. *)

val capture : unit -> captured

val absorb : ?tid_offset:int -> captured -> unit
(** Merge a child's capture into this process's export.  [tid_offset]
    shifts the child's track ids so its PEs land on distinct tracks
    (span ids are process-local and may collide across processes; the
    tracks keep the timelines apart). *)

(** {1 Streaming sink}

    Long-running replicas (serve workers, the router) buffer spans
    until exit, so a kill loses the whole capture.  A sink streams the
    same Chrome object to a file incrementally: events are appended —
    and {e removed from the buffers} — on every {!flush_sink}, which
    also fires automatically whenever any domain's buffer reaches the
    size threshold.  The trace_event JSON Array Format tolerates a
    missing closing bracket, so a file cut off mid-run still loads in
    Perfetto.  One sink per process; {!export} only sees what has not
    yet been flushed. *)

val set_sink : ?threshold:int -> string -> unit
(** Open [path] (truncating) and write the stream header.  From then
    on any buffer reaching [threshold] events (default 4096) triggers
    a flush of {e all} buffers.
    @raise Invalid_argument if a sink is already open. *)

val flush_sink : unit -> unit
(** Append all buffered events to the sink now (no-op without one). *)

val close_sink : unit -> unit
(** Final flush, closing bracket, close the file (no-op without one). *)

val sink_path : unit -> string option

val sink_flushed : unit -> int
(** Events written to the sink since {!set_sink}. *)
