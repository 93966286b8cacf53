module Graph = Mimd_ddg.Graph
module Schedule = Mimd_core.Schedule

let schedule ~graph ~iterations =
  if iterations <= 0 then invalid_arg "Sequential.schedule: iterations <= 0";
  let order = Mimd_ddg.Topo.sort_zero graph in
  let machine = Mimd_machine.Config.make ~processors:1 ~comm_estimate:0 in
  let entries = ref [] in
  let cursor = ref 0 in
  for i = 0 to iterations - 1 do
    List.iter
      (fun v ->
        entries := Schedule.{ inst = { node = v; iter = i }; proc = 0; start = !cursor } :: !entries;
        cursor := !cursor + Graph.latency graph v)
      order
  done;
  Schedule.make ~graph ~machine !entries
