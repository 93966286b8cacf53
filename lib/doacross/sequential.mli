(** Sequential execution: the reference point for percentage
    parallelism (its makespan is {!Mimd_core.Metrics.sequential_time}). *)

val schedule : graph:Mimd_ddg.Graph.t -> iterations:int -> Mimd_core.Schedule.t
(** All instances back to back on one processor, iterations in order,
    bodies in the consistent distance-0 topological order. *)
