module Program = Mimd_codegen.Program
module Graph = Mimd_ddg.Graph
module Ast = Mimd_loop_ir.Ast
module Interp = Mimd_loop_ir.Interp
module Trace = Mimd_obs.Trace

type outcome = {
  instance_values : ((int * int) * float) list;
  final : (string * int * float) list;
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

(* The outcome is built from dense tables: each PE's value array is
   scattered into one nodes x iters table (later PEs overwrite earlier
   ones, as every PE computing an instance computes the same value),
   and the last writer of every cell is found by replaying that table
   in sequential (iteration, body position) order into a per-array
   cell range.  Both output lists are emitted already sorted. *)
let finalize ~loop ~program ~computes ~results =
  Trace.span ~cat:"run" "run.finalize" @@ fun () ->
  if not (Ast.is_flat loop) then invalid_arg "Value_run: loop must be flat";
  let stmts = Array.of_list (Ast.assignments loop) in
  let nodes = Array.length stmts in
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
  let table = Array.make (nodes * iters) 0.0 in
  let present = Bytes.make (nodes * iters) '\000' in
  Array.iteri
    (fun j cs ->
      let vals, _, _ = results.(j) in
      Array.iteri
        (fun k (node, iter) ->
          let ix = (node * iters) + iter in
          table.(ix) <- vals.(k);
          Bytes.set present ix '\001')
        cs)
    computes;
  let instance_values = ref [] in
  for ix = (nodes * iters) - 1 downto 0 do
    if Bytes.get present ix <> '\000' then
      instance_values := ((ix / iters, ix mod iters), table.(ix)) :: !instance_values
  done;
  (* One dense cell range per written array, in name order: fixed
     cells live at index 0 ({!Interp.cell_index}), an affine write at
     offset [a] covers [a, a + iters). *)
  let names =
    List.sort_uniq String.compare (Array.to_list (Array.map (fun (a, _, _) -> a) stmts))
    |> Array.of_list
  in
  let ranges =
    Array.map
      (fun name ->
        Array.fold_left
          (fun (lo, hi) (array, offset, _) ->
            if not (String.equal array name) then (lo, hi)
            else
              ( min lo (Interp.cell_index array ~iter:0 ~offset),
                max hi (Interp.cell_index array ~iter:(iters - 1) ~offset) ))
          (max_int, min_int) stmts)
      names
  in
  let array_of =
    Array.map
      (fun (a, _, _) ->
        let rec find i = if String.equal names.(i) a then i else find (i + 1) in
        find 0)
      stmts
  in
  let cells = Array.map (fun (lo, hi) -> Array.make (hi - lo + 1) 0.0) ranges in
  let written = Array.map (fun c -> Bytes.make (Array.length c) '\000') cells in
  for iter = 0 to iters - 1 do
    for node = 0 to nodes - 1 do
      let ix = (node * iters) + iter in
      if Bytes.get present ix <> '\000' then begin
        let array, offset, _ = stmts.(node) in
        let a = array_of.(node) in
        let c = Interp.cell_index array ~iter ~offset - fst ranges.(a) in
        cells.(a).(c) <- table.(ix);
        Bytes.set written.(a) c '\001'
      end
    done
  done;
  let final = ref [] in
  for a = Array.length names - 1 downto 0 do
    let lo = fst ranges.(a) in
    for c = Array.length cells.(a) - 1 downto 0 do
      if Bytes.get written.(a) c <> '\000' then
        final := (names.(a), lo + c, cells.(a).(c)) :: !final
    done
  done;
  let messages = Array.fold_left (fun acc (_, sent, _) -> acc + sent) 0 results in
  let domain_wall_ns = Array.map (fun (_, _, ns) -> ns) results in
  {
    instance_values = !instance_values;
    final = !final;
    messages;
    domains = program.Program.processors;
    domain_wall_ns;
    makespan_ns = Array.fold_left max 0.0 domain_wall_ns;
  }

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let check_against_sequential ?init ?scalars ~loop ~iterations outcome =
  let expected = Interp.written_cells (Interp.run ?init ?scalars loop ~iterations) in
  let got = outcome.final in
  if List.length expected <> List.length got then
    Error
      (Printf.sprintf "cell count mismatch: sequential wrote %d, parallel %d"
         (List.length expected) (List.length got))
  else begin
    let rec compare_cells = function
      | [], [] -> Ok ()
      | (a1, i1, v1) :: r1, (a2, i2, v2) :: r2 ->
        if a1 <> a2 || i1 <> i2 then
          Error (Printf.sprintf "cell mismatch: sequential %s[%d] vs parallel %s[%d]" a1 i1 a2 i2)
        else if not (same_bits v1 v2) then
          Error
            (Printf.sprintf "value mismatch at %s[%d]: sequential %.17g, parallel %.17g" a1 i1
               v1 v2)
        else compare_cells (r1, r2)
      | _ -> Error "cell list length mismatch"
    in
    compare_cells (expected, got)
  end

let check_instances ~spec got =
  let sort l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  let rec go = function
    | [], [] -> Ok ()
    | ((s, i), v) :: r1, ((s', i'), v') :: r2 ->
      if s <> s' || i <> i' then
        Error (Printf.sprintf "instance sets differ at (%d,%d) vs (%d,%d)" s i s' i')
      else if not (same_bits v v') then
        Error (Printf.sprintf "instance (%d,%d): sequential %h, parallel %h" s i v v')
      else go (r1, r2)
    | _ -> Error "instance list length mismatch"
  in
  if List.length spec <> List.length got then
    Error
      (Printf.sprintf "sequential computed %d instance(s), parallel %d"
         (List.length spec) (List.length got))
  else go (sort spec, sort got)
