(** ASCII Gantt charts of simulation traces.

    Renders what the machine {e actually did} — as opposed to
    {!Mimd_core.Schedule.render_grid}, which shows the static plan.
    Each processor is one row; compute occupies its latency in cells,
    idle/blocked time shows as dots.  Useful for eyeballing where a
    fluctuating network stretched the steady state. *)

val render :
  ?max_cycles:int ->
  graph:Mimd_ddg.Graph.t ->
  processors:int ->
  Exec.event list ->
  string
(** Render a recorded trace (run the simulator with [~record:true]).
    [max_cycles] truncates the horizontal axis (default 120 cycles);
    each cycle is three characters wide; labels sit at each op's
    start, the rest of its span shows as [=]. *)
