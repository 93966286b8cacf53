module Program = Mimd_codegen.Program
module Graph = Mimd_ddg.Graph
module Ast = Mimd_loop_ir.Ast
module Interp = Mimd_loop_ir.Interp
module Trace = Mimd_obs.Trace

type instances = { iters : int; values : float array; present : Bytes.t }

type outcome = {
  instances : instances;
  memory : Interp.store;
  messages : int;
  domains : int;
  domain_wall_ns : float array;
  makespan_ns : float;
}

type payload =
  | Single of float
  | Pack of ((int * int) * float) array

type chans = {
  send : dst:int -> tag:int * int -> payload -> unit;
  recv : src:int -> tag:int * int -> payload;
}

let default_channel_capacity = 256

(* Pull frames off [src]'s link until [tag]'s arrives, holding every
   other frame in [held] for a later recv.  A function of its own, not
   a closure in [recv], so an in-order frame costs no allocation. *)
let rec pull next held ~src (((n : int), (i : int)) as tag) =
  let ((n', i') as tag'), v = next ~src in
  if n = n' && i = i' then v
  else begin
    Hashtbl.replace held tag' v;
    pull next held ~src tag
  end

let of_links ~procs ~send ~next =
  let stash = Array.init procs (fun _ -> Hashtbl.create 16) in
  let recv ~src ~tag =
    let held = stash.(src) in
    if Hashtbl.length held = 0 then pull next held ~src tag
    else
      match Hashtbl.find_opt held tag with
      | Some v ->
        Hashtbl.remove held tag;
        v
      | None -> pull next held ~src tag
  in
  { send; recv }

(* Each PE's value array is scattered into one nodes x iters table
   (later PEs overwrite earlier ones, as every PE computing an instance
   computes the same value); {!Interp.of_instances} replays it into the
   final memory.  Nothing is allocated per instance. *)
let finalize ~loop ~program ~computes ~results =
  Trace.span ~cat:"run" "run.finalize" @@ fun () ->
  if not (Ast.is_flat loop) then invalid_arg "Value_run: loop must be flat";
  let nodes = List.length loop.Ast.body in
  if nodes <> Graph.node_count program.Program.graph then
    invalid_arg "Value_run: statement/node count mismatch";
  if Array.length computes <> Array.length results then
    invalid_arg "Value_run: one computes array per processor";
  let iters = ref 0 in
  Array.iteri
    (fun j cs ->
      let vals, _, _ = results.(j) in
      if Array.length vals <> Array.length cs then
        invalid_arg
          (Printf.sprintf "Value_run: PE%d returned %d value(s) for %d compute(s)" j
             (Array.length vals) (Array.length cs));
      Array.iter
        (fun (node, iter) ->
          if node < 0 || node >= nodes || iter < 0 then
            invalid_arg "Value_run: instance out of range";
          if iter >= !iters then iters := iter + 1)
        cs)
    computes;
  let iters = !iters in
  let values = Array.make (nodes * iters) 0.0 in
  let present = Bytes.make (nodes * iters) '\000' in
  Array.iteri
    (fun j cs ->
      let vals, _, _ = results.(j) in
      Array.iteri
        (fun k (node, iter) ->
          let ix = (node * iters) + iter in
          values.(ix) <- vals.(k);
          Bytes.set present ix '\001')
        cs)
    computes;
  let memory = Interp.of_instances loop ~iterations:iters ~values ~present in
  let messages = Array.fold_left (fun acc (_, sent, _) -> acc + sent) 0 results in
  let domain_wall_ns = Array.map (fun (_, _, ns) -> ns) results in
  {
    instances = { iters; values; present };
    memory;
    messages;
    domains = program.Program.processors;
    domain_wall_ns;
    makespan_ns = Array.fold_left max 0.0 domain_wall_ns;
  }

let spec ~loop ~iterations =
  let values = Interp.instance_table loop ~iterations in
  { iters = iterations; values; present = Bytes.make (Array.length values) '\001' }

let instance_count { present; _ } =
  let n = ref 0 in
  Bytes.iter (fun b -> if b <> '\000' then incr n) present;
  !n

let instance_values o =
  let { iters; values; present } = o.instances in
  let out = ref [] in
  for ix = Array.length values - 1 downto 0 do
    if Bytes.get present ix <> '\000' then out := ((ix / iters, ix mod iters), values.(ix)) :: !out
  done;
  !out

let final o = Interp.written_cells o.memory

let check_against_sequential ~loop ~iterations outcome =
  match Interp.first_difference (Interp.run loop ~iterations) outcome.memory with
  | None -> Ok ()
  | Some (Interp.Cell_count (s, p)) ->
    Error (Printf.sprintf "cell count mismatch: sequential wrote %d, parallel %d" s p)
  | Some (Interp.Cell ((a1, i1), (a2, i2))) ->
    Error (Printf.sprintf "cell mismatch: sequential %s[%d] vs parallel %s[%d]" a1 i1 a2 i2)
  | Some (Interp.Value (a, i, s, p)) ->
    Error (Printf.sprintf "value mismatch at %s[%d]: sequential %.17g, parallel %.17g" a i s p)

(* The first present instance at or after [ix], in node-major, so
   (node, iteration), order; the table's length when there is none. *)
let rec next_present t ix =
  if ix < Bytes.length t.present && Bytes.unsafe_get t.present ix = '\000' then
    next_present t (ix + 1)
  else ix

let check_instances ~spec got =
  let ns = instance_count spec and ng = instance_count got in
  if ns <> ng then
    Error (Printf.sprintf "sequential computed %d instance(s), parallel %d" ns ng)
  else
    (* Equal counts: both walks run out together. *)
    let rec go i j =
      let i = next_present spec i and j = next_present got j in
      if i = Bytes.length spec.present then Ok ()
      else
        let s = i / spec.iters and si = i mod spec.iters in
        let s' = j / got.iters and si' = j mod got.iters in
        let v = spec.values.(i) and v' = got.values.(j) in
        if s <> s' || si <> si' then
          Error (Printf.sprintf "instance sets differ at (%d,%d) vs (%d,%d)" s si s' si')
        else if not (Interp.same_bits v v') then
          Error (Printf.sprintf "instance (%d,%d): sequential %h, parallel %h" s si v v')
        else go (i + 1) (j + 1)
    in
    go 0 0

let same_values a b =
  Result.is_ok (check_instances ~spec:a.instances b.instances)
  && Option.is_none (Interp.first_difference a.memory b.memory)
