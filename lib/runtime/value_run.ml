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
  send : dst:int -> node:int -> iter:int -> payload -> unit;
  recv : src:int -> node:int -> iter:int -> payload;
}

let default_channel_capacity = 256

(* Pull frames off [src]'s link until instance (node, iter)'s arrives,
   holding every other frame in [held] for a later recv.  A function
   of its own, not a closure in [recv], so an in-order frame costs no
   allocation. *)
let rec pull next held ~src (node : int) (iter : int) =
  let ((n, i) as tag), v = next ~src in
  if n = node && i = iter then v
  else begin
    Hashtbl.replace held tag v;
    pull next held ~src node iter
  end

let of_links ~procs ~send ~next =
  let stash = Array.init procs (fun _ -> Hashtbl.create 16) in
  let recv ~src ~node ~iter =
    let held = stash.(src) in
    if Hashtbl.length held = 0 then pull next held ~src node iter
    else
      match Hashtbl.find_opt held (node, iter) with
      | Some v ->
        Hashtbl.remove held (node, iter);
        v
      | None -> pull next held ~src node iter
  in
  { send; recv }

(* The [nodes x iters] table's row of each node moved to a table of
   [iters'] columns. *)
let resize ~nodes ~iters ~iters' values present =
  let values' = Array.make (nodes * iters') 0.0 in
  let present' = Bytes.make (nodes * iters') '\000' in
  let keep = min iters iters' in
  for node = 0 to nodes - 1 do
    Array.blit values (node * iters) values' (node * iters') keep;
    Bytes.blit present (node * iters) present' (node * iters') keep
  done;
  (values', present')

(* Each PE's value array is scattered into one nodes x iters table in
   one walk of its compute records (value [k] is its [k]-th compute's;
   later PEs overwrite earlier ones, as every PE computing an instance
   computes the same value); {!Interp.of_instances} replays it into the
   final memory.  A well-formed program computes every instance of its
   iterations once, so the value count sets the table's columns; a
   program that does not resizes it.  Nothing is allocated per
   instance. *)
let finalize ~loop ~program ~results =
  Trace.span ~cat:"run" "run.finalize" @@ fun () ->
  if not (Ast.is_flat loop) then invalid_arg "Value_run: loop must be flat";
  let nodes = List.length loop.Ast.body in
  if nodes <> Graph.node_count program.Program.graph then
    invalid_arg "Value_run: statement/node count mismatch";
  let code = program.Program.code in
  if Array.length code <> Array.length results then
    invalid_arg "Value_run: one result per processor";
  let total = Array.fold_left (fun n (vals, _, _) -> n + Array.length vals) 0 results in
  let cols = ref (if nodes = 0 then 0 else total / nodes) in
  let values = ref (Array.make (nodes * !cols) 0.0) in
  let present = ref (Bytes.make (nodes * !cols) '\000') in
  let iters = ref 0 in
  (* The record layout, bound once: [Program]'s constants are loads
     from its module block in a build without cross-module inlining. *)
  let record = Program.width and compute = Program.compute in
  let f_kind = Program.field_kind and f_node = Program.field_node in
  let f_iter = Program.field_iter in
  for j = 0 to Array.length code - 1 do
    let vals, _, _ = results.(j) in
    let ins = code.(j).instrs and k = ref 0 in
    for pc = 0 to (Array.length ins / record) - 1 do
      let b = pc * record in
      if ins.(b + f_kind) = compute then begin
        let node = ins.(b + f_node) and iter = ins.(b + f_iter) in
        if node < 0 || node >= nodes || iter < 0 then
          invalid_arg "Value_run: instance out of range";
        if !k < Array.length vals then begin
          if iter >= !cols then begin
            let wider = max (iter + 1) (2 * !cols) in
            let v, p = resize ~nodes ~iters:!cols ~iters':wider !values !present in
            values := v;
            present := p;
            cols := wider
          end;
          let ix = (node * !cols) + iter in
          !values.(ix) <- vals.(!k);
          Bytes.set !present ix '\001'
        end;
        if iter >= !iters then iters := iter + 1;
        incr k
      end
    done;
    if Array.length vals <> !k then
      invalid_arg
        (Printf.sprintf "Value_run: PE%d returned %d value(s) for %d compute(s)" j
           (Array.length vals) !k)
  done;
  let iters = !iters in
  let values, present =
    if iters = !cols then (!values, !present)
    else resize ~nodes ~iters:!cols ~iters':iters !values !present
  in
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
        if s <> s' || si <> si' then
          Error (Printf.sprintf "instance sets differ at (%d,%d) vs (%d,%d)" s si s' si')
        (* Inline, not [Interp.same_bits]: a call across that library
           boundary boxes both floats. *)
        else if Int64.bits_of_float spec.values.(i) <> Int64.bits_of_float got.values.(j) then
          Error
            (Printf.sprintf "instance (%d,%d): sequential %h, parallel %h" s si spec.values.(i)
               got.values.(j))
        else go (i + 1) (j + 1)
    in
    go 0 0

let same_values a b =
  Result.is_ok (check_instances ~spec:a.instances b.instances)
  && Option.is_none (Interp.first_difference a.memory b.memory)
