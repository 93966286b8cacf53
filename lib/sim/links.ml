module Fluctuation = Mimd_machine.Fluctuation

type spec =
  | Fixed of int
  | Uniform of { base : int; mm : int; seed : int }
  | Bursty of { base : int; mm : int; burst_len : int; seed : int }
  | Topo of {
      shape : Topology.shape;
      processors : int;
      base : int;
      per_hop : int;
      mm : int;
      seed : int;
    }

type t = { spec : spec; models : (int * int, Fluctuation.t) Hashtbl.t }

let fixed latency = { spec = Fixed latency; models = Hashtbl.create 16 }
let uniform ~base ~mm ~seed = { spec = Uniform { base; mm; seed }; models = Hashtbl.create 16 }

let bursty ~base ~mm ~burst_len ~seed =
  { spec = Bursty { base; mm; burst_len; seed }; models = Hashtbl.create 16 }

let topology_aware ~shape ~processors ~base ~per_hop ~mm ~seed =
  if per_hop < 0 then invalid_arg "Links.topology_aware: negative per_hop";
  { spec = Topo { shape; processors; base; per_hop; mm; seed }; models = Hashtbl.create 16 }

(* A link's seed mixes the master seed with the link's identity so the
   streams are independent yet reproducible. *)
let link_seed seed src dst = (seed * 1_000_003) + (src * 7919) + dst

let model_for t ~src ~dst =
  match Hashtbl.find_opt t.models (src, dst) with
  | Some m -> m
  | None ->
    let m =
      match t.spec with
      | Fixed latency -> Fluctuation.fixed latency
      | Uniform { base; mm; seed } ->
        Fluctuation.uniform ~base ~mm ~seed:(link_seed seed src dst)
      | Bursty { base; mm; burst_len; seed } ->
        Fluctuation.bursty ~base ~mm ~burst_len ~seed:(link_seed seed src dst)
      | Topo { shape; processors; base; per_hop; mm; seed } ->
        let distance = base + (per_hop * (Topology.hops shape ~processors ~src ~dst - 1)) in
        if mm <= 1 then Fluctuation.fixed distance
        else Fluctuation.uniform ~base:distance ~mm ~seed:(link_seed seed src dst)
    in
    Hashtbl.replace t.models (src, dst) m;
    m

let sample t ~src ~dst = Fluctuation.sample (model_for t ~src ~dst)

let describe t =
  match t.spec with
  | Fixed latency -> Printf.sprintf "fixed(%d)" latency
  | Uniform { base; mm; _ } -> Printf.sprintf "uniform[%d,%d]" base (base + mm - 1)
  | Bursty { base; mm; burst_len; _ } ->
    Printf.sprintf "bursty[%d,%d]/%d" base (base + mm - 1) burst_len
  | Topo { shape; base; per_hop; mm; _ } ->
    Printf.sprintf "%s(base %d, per-hop %d, mm %d)" (Topology.describe shape) base per_hop mm
