module Graph = Mimd_ddg.Graph

type cell = { proc : int; row : int; node : int; rel_iter : int; phase : int }

(* The key packs the scan-ordered cells into an int array: a format
   tag, then per cell one word holding (proc, row, node, phase) in
   fixed bit-fields plus one raw word for the (possibly negative)
   rebased iteration.  Structural equality on the array coincides with
   equality of the cell lists, the representation never truncates —
   unlike polymorphic [Hashtbl.hash] on a record list, which stops
   after ~10 words and made every wide window collide — and hashing is
   a monomorphic FNV sweep over machine words.  Fields too large for
   the bit-fields (absurd machines) switch to an unpacked 5-words-per-
   cell format, distinguished by the tag so the two can never alias. *)
type key = int array

let proc_bits = 15
let row_bits = 15
let node_bits = 16
let phase_bits = 15
let fits bits v = v >= 0 && v lsr bits = 0

let packed_tag = 0
let wide_tag = 1

type t = { key : key; anchor_iter : int; top : int }

let pack_cells cells =
  let n = List.length cells in
  let packable =
    List.for_all
      (fun c ->
        fits proc_bits c.proc && fits row_bits c.row && fits node_bits c.node
        && fits phase_bits c.phase)
      cells
  in
  if packable then begin
    let key = Array.make (1 + (2 * n)) packed_tag in
    List.iteri
      (fun i c ->
        let w =
          ((((c.proc lsl row_bits) lor c.row) lsl node_bits) lor c.node) lsl phase_bits
          lor c.phase
        in
        key.((2 * i) + 1) <- w;
        key.((2 * i) + 2) <- c.rel_iter)
      cells;
    key
  end
  else begin
    let key = Array.make (1 + (5 * n)) wide_tag in
    List.iteri
      (fun i c ->
        let o = (5 * i) + 1 in
        key.(o) <- c.proc;
        key.(o + 1) <- c.row;
        key.(o + 2) <- c.node;
        key.(o + 3) <- c.rel_iter;
        key.(o + 4) <- c.phase)
      cells;
    key
  end

let equal_key (a : key) (b : key) =
  Array.length a = Array.length b
  &&
  let rec go i = i < 0 || (a.(i) = b.(i) && go (i - 1)) in
  go (Array.length a - 1)

(* FNV-1a over the words, a non-negative int. *)
let hash_key (k : key) = Array.fold_left Mimd_util.Fnv.mix Mimd_util.Fnv.basis k

module Tbl = Hashtbl.Make (struct
  type t = key

  let equal = equal_key
  let hash = hash_key
end)

let extract ~graph ~entries_overlapping ~top ~height =
  let bottom = top + height - 1 in
  let entries = entries_overlapping ~top ~bottom in
  let raw_cells = ref [] in
  List.iter
    (fun (e : Schedule.entry) ->
      let lat = Graph.latency graph e.inst.node in
      let first_row = max 0 (e.start - top) in
      let last_row = min (height - 1) (e.start + lat - 1 - top) in
      for row = first_row to last_row do
        raw_cells :=
          (e.proc, row, e.inst.node, e.inst.iter, top + row - e.start) :: !raw_cells
      done)
    entries;
  match List.sort compare !raw_cells with
  | [] -> None
  | ((_, _, _, anchor_iter, _) :: _ as sorted) ->
    let cells =
      List.map
        (fun (proc, row, node, iter, phase) ->
          { proc; row; node; rel_iter = iter - anchor_iter; phase })
        sorted
    in
    Some { key = pack_cells cells; anchor_iter; top }

let shift_between ~earlier ~later = later.anchor_iter - earlier.anchor_iter
