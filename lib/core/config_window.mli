(** Configurations (paper Section 2.3, Definitions 1-2).

    A configuration is the portion of the (infinite) schedule seen
    through a window of width [p] (all processors) and height [k + 1]
    (the communication bound plus one) positioned at some cycle.  Two
    configurations are {e identical} when the node-instance set of one
    is a shifted form of the other — all iteration indices shifted by
    the same [d] — and the layout (processor, row offset, execution
    phase) is exactly the same.

    Canonicalisation implements the shifted-form comparison: iteration
    indices are rebased against the instance occupying the first
    occupied cell in (processor, row) scan order, so two identical
    configurations produce equal keys, and the shift [d] is recovered
    as the difference of their anchor iterations. *)

type cell = {
  proc : int;
  row : int;  (** offset from the window top, in [0, height) *)
  node : int;
  rel_iter : int;  (** iteration rebased against the anchor cell *)
  phase : int;  (** cycles since the instance started (0 = first cycle);
                    distinguishes an operation starting in the window
                    from one already in flight *)
}

type key = int array
(** Scan-ordered cells, packed: a format tag followed by bit-packed
    (proc, row, node, phase) words paired with raw rebased-iteration
    words (or five raw words per cell for machines whose coordinates
    exceed the bit-fields — the tag keeps the formats from aliasing).
    Structural equality ([=]) on keys coincides with equality of the
    underlying cell lists; key tables with {!Tbl} — polymorphic
    [Hashtbl.hash] truncates long arrays. *)

module Tbl : Hashtbl.S with type key = key
(** Hash tables keyed on full-width configuration keys, hashed by a
    monomorphic FNV-1a over the whole array — no truncation, so wide
    windows don't collide the way polymorphic hashing made them. *)

type t = {
  key : key;
  anchor_iter : int;  (** absolute iteration of the anchor cell *)
  top : int;  (** absolute cycle of the window's first row *)
}

val extract :
  graph:Mimd_ddg.Graph.t ->
  entries_overlapping:(top:int -> bottom:int -> Schedule.entry list) ->
  top:int ->
  height:int ->
  t option
(** Configuration at [top]; [None] when the window is completely idle
    (an idle window matches any other idle window with an arbitrary
    shift, so it can never anchor a pattern).
    [entries_overlapping] must return every scheduled entry whose
    execution interval intersects [\[top, bottom\]]. *)

val shift_between : earlier:t -> later:t -> int
(** The iteration shift [d] between two configurations with equal
    keys. *)
