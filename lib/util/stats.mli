(** Small statistics helpers used by the experiment harnesses. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val variance : float list -> float
(** Population variance; 0 on lists shorter than 2. *)

val stddev : float list -> float
(** Population standard deviation. *)

val minimum : float list -> float
(** Smallest element.  @raise Invalid_argument on empty. *)

val maximum : float list -> float
(** Largest element.  @raise Invalid_argument on empty. *)

val median : float list -> float
(** Median (average of the two middle elements for even lengths);
    @raise Invalid_argument on empty. *)

val percentile : float -> float list -> float
(** [percentile p xs] with [p] in [\[0,100\]], nearest-rank method:
    the result is the element at 1-based rank [ceil (p/100 * n)] of
    the sorted list (clamped to [\[1, n\]]), so it is always an actual
    sample — no interpolation.  Consequences worth knowing:

    - [percentile 0.0 xs] and any [p] with rank 0 return the minimum;
      [percentile 100.0 xs] returns the maximum.
    - On a single element every percentile returns that element.
    - On [\[10.; 20.\]], p50 is [10.] (rank [ceil 1.0] = 1) while
      p51 … p100 are [20.]; nearest-rank p50 therefore differs from
      {!median}, which averages the two middle elements.
    - On odd lengths p50 equals {!median} (the middle element).

    @raise Invalid_argument on empty or [p] out of range. *)

val geometric_mean : float list -> float
(** Geometric mean of positive values; 0 on the empty list. *)

val ratio_of_means : float list -> float list -> float
(** [ratio_of_means xs ys] = mean xs / mean ys; [nan] when mean ys = 0. *)
