type t = { processors : int; comm_estimate : int }

let make ~processors ~comm_estimate =
  if processors < 1 then invalid_arg "Config.make: processors < 1";
  if comm_estimate < 0 then invalid_arg "Config.make: negative comm_estimate";
  { processors; comm_estimate }

let default = { processors = 2; comm_estimate = 2 }

let edge_cost t (e : Mimd_ddg.Graph.edge) =
  match e.cost with
  | None -> t.comm_estimate
  | Some c -> min c t.comm_estimate

let pp ppf t =
  Format.fprintf ppf "machine(p=%d, k=%d)" t.processors t.comm_estimate
