(** Empirical behaviour of the pattern search.

    Section 2.2 claims the unrolling depth M needed before a pattern
    emerges "is typically very small, less than 10 in all the examples
    we ran", which is what makes the worst-case O(M^3 N^3) detection
    cost irrelevant in practice.  This experiment measures M (the
    iterations actually unwound), the detection cycle, the number of
    configurations inspected, and rejected candidates, across the paper
    workloads, the synthetic families, and the random loops. *)

type row = {
  label : string;
  nodes : int;  (** of the Cyclic core *)
  pattern : (Mimd_core.Cyclic_sched.result, string) result;
      (** the search at a 256-iteration budget ([stats.iterations_touched]
          is the paper's M), or why it found nothing: "no pattern in
          256 iters" with the core's number of weakly connected
          components, or an invalid [solve] input *)
}

val measure :
  ?machine:Mimd_machine.Config.t -> label:string -> Mimd_ddg.Graph.t -> row option
(** [None] only when the graph has no Cyclic subset; full loops are
    reduced to their Cyclic core automatically. *)

val paper_workloads : unit -> row list
(** The four worked examples plus Fig. 3. *)

val random_loops : ?count:int -> unit -> row list
(** The Table-1 random Cyclic subsets (default: the first 25 usable
    seeds), one row per seed, settled or not. *)

val render : row list -> string
(** The table, a row's cause spanning M … d when it has no pattern, and
    M's mean and max over the settled rows, saying how many. *)
