let percentage_parallelism ~sequential ~parallel =
  if sequential <= 0 then invalid_arg "Metrics.percentage_parallelism: sequential <= 0";
  float_of_int (sequential - parallel) /. float_of_int sequential *. 100.0

let sequential_time g ~iterations = iterations * Mimd_ddg.Graph.total_latency g
