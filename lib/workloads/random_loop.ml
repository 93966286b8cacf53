module Graph = Mimd_ddg.Graph
module Prng = Mimd_util.Prng

type params = {
  nodes : int;
  lcds : int;
  sds : int;
  min_latency : int;
  max_latency : int;
}

let default_params = { nodes = 40; lcds = 20; sds = 20; min_latency = 1; max_latency = 3 }

let generate ?(params = default_params) ~seed () =
  if params.nodes < 2 then invalid_arg "Random_loop.generate: needs >= 2 nodes";
  let rng = Prng.create ~seed in
  let b = Graph.builder () in
  for i = 0 to params.nodes - 1 do
    let latency = Prng.int_in rng ~lo:params.min_latency ~hi:params.max_latency in
    ignore (Graph.add_node b ~latency (Printf.sprintf "n%d" i))
  done;
  (* Loop-carried links: any ordered pair, distance 1. *)
  for _ = 1 to params.lcds do
    let src = Prng.int rng params.nodes in
    let dst = Prng.int rng params.nodes in
    Graph.add_edge b ~src ~dst ~distance:1
  done;
  (* Simple links: oriented low id -> high id, keeping the distance-0
     subgraph acyclic. *)
  for _ = 1 to params.sds do
    let a = Prng.int rng params.nodes in
    let d = 1 + Prng.int rng (params.nodes - 1) in
    let bnd = a + d in
    let src, dst = if bnd < params.nodes then (a, bnd) else (bnd - params.nodes, a) in
    if src <> dst then Graph.add_edge b ~src ~dst ~distance:0
  done;
  Graph.build b

let generate_cyclic ?params ~seed () =
  let g = generate ?params ~seed () in
  let cls = Mimd_core.Classify.run g in
  if cls.Mimd_core.Classify.cyclic = [] then None
  else begin
    let sub, _, _ = Mimd_core.Classify.cyclic_subgraph g cls in
    Some sub
  end

let paper_seeds = List.init 25 (fun i -> i + 1)

(* ------------------------------------------------------------------ *)
(* Seeded random loop-IR programs (not just graphs): concrete flat
   loops for the value-level executors' differential tests.  Every
   statement writes offset 0 of one of a few arrays; reads use offsets
   in {-1, 0}, keeping dependence distances within the scheduler's
   {0, 1}.  The distance-0 dependences always point forward in body
   order (a same-iteration read of a later writer resolves to the
   previous iteration), so every generated loop is well-formed. *)

module Ast = Mimd_loop_ir.Ast

let loop_arrays = [| "A"; "B"; "C"; "D"; "E" |]

let generate_loop ?(max_stmts = 6) ?(fanout = 0.0) ~seed () =
  if max_stmts < 2 then
    invalid_arg "Random_loop.generate_loop: bad statement bounds";
  if fanout < 0.0 || fanout > 1.0 then
    invalid_arg "Random_loop.generate_loop: fanout outside [0, 1]";
  let rng = Prng.create ~seed:(seed * 2 * 31 * 997) in
  let gen_ref () =
    let array = loop_arrays.(Prng.int rng (Array.length loop_arrays)) in
    let offset = -Prng.int rng 2 in
    Ast.Ref { array; offset }
  in
  let rec gen_expr depth =
    match if depth = 0 then Prng.int rng 2 else Prng.int rng 4 with
    | 0 -> gen_ref ()
    | 1 -> Ast.Int (1 + Prng.int rng 5)
    | _ ->
      let op =
        match Prng.int rng 3 with 0 -> Ast.Add | 1 -> Ast.Sub | _ -> Ast.Mul
      in
      Ast.Binop (op, gen_expr (depth - 1), gen_expr (depth - 1))
  in
  let nstmts = Prng.int_in rng ~lo:2 ~hi:max_stmts in
  (* Each statement past the first reads the array its predecessor
     writes, so consecutive statements always share a dependence edge
     (flow at distance 0 or 1, by the Depend rules) and the DDG is
     weakly connected — a random rhs alone could leave constant-only
     statements isolated. *)
  (* The predecessor chain alone biases the DDG towards out-degree 1
     (each value read once, by the next statement), which never
     exercises fan-out shapes — diamonds, shared operands — in the
     consumers.  [fanout] is the per-statement probability of one
     extra read of a uniformly chosen {e earlier} writer's array; at
     the default 0.0 the guard short-circuits before any PRNG draw, so
     existing seeds generate byte-identical loops. *)
  let rec build s prev written acc =
    if s = nstmts then List.rev acc
    else begin
      let array = loop_arrays.(Prng.int rng (Array.length loop_arrays)) in
      let rhs = gen_expr 2 in
      let rhs =
        match prev with
        | None -> rhs
        | Some chained ->
          Ast.Binop (Ast.Add, Ast.Ref { array = chained; offset = -Prng.int rng 2 }, rhs)
      in
      let rhs =
        if fanout > 0.0 && written <> [] && Prng.float rng 1.0 < fanout then begin
          let back = List.nth written (Prng.int rng (List.length written)) in
          Ast.Binop (Ast.Add, rhs, Ast.Ref { array = back; offset = -Prng.int rng 2 })
        end
        else rhs
      in
      build (s + 1) (Some array) (array :: written)
        (Ast.Assign { array; offset = 0; rhs } :: acc)
    end
  in
  { Ast.index = "i"; lo = "1"; hi = "n"; body = build 0 None [] []; }
