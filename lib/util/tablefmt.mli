(** ASCII table rendering for the experiment harnesses.

    The bench and CLI executables print paper-shaped tables (e.g. the
    reproduction of Table 1(a)/(b)); this module centralizes the
    column-width bookkeeping. *)

type align = Left | Right

type t
(** A table under construction. *)

val create : ?aligns:align list -> header:string list -> unit -> t
(** [create ~header ()] starts a table.  [aligns] defaults to [Right]
    for every column.  The number of columns is fixed by [header]. *)

val add_row : t -> string list -> unit
(** Append a row.  @raise Invalid_argument if the arity differs from
    the header's. *)

val add_span_row : t -> string list -> string -> unit
(** A row of leading [cells] and a left-aligned text spanning the other
    columns (the last widens to fit).  @raise Invalid_argument if
    [cells] leaves no column. *)

val add_rule : t -> unit
(** Append a horizontal rule. *)

val render : t -> string
(** Render with box-drawing in plain ASCII. *)

val print : t -> unit
(** [print t] writes [render t] to stdout followed by a newline. *)

val cell_float : ?decimals:int -> float -> string
(** Format a float cell; default 1 decimal, matching the paper's
    percentage-parallelism tables. *)
