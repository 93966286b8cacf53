type align = Left | Right

type row = Cells of string list * string option (* the spanning text *) | Rule

type t = {
  header : string list;
  aligns : align array;
  ncols : int;
  mutable rows : row list; (* reversed *)
}

let create ?aligns ~header () =
  let ncols = List.length header in
  let aligns =
    match aligns with
    | None -> Array.make ncols Right
    | Some l ->
      if List.length l <> ncols then invalid_arg "Tablefmt.create: aligns arity";
      Array.of_list l
  in
  { header; aligns; ncols; rows = [] }

let add_row t cells =
  if List.length cells <> t.ncols then invalid_arg "Tablefmt.add_row: arity";
  t.rows <- Cells (cells, None) :: t.rows

let add_span_row t cells text =
  if List.length cells >= t.ncols then invalid_arg "Tablefmt.add_span_row: arity";
  t.rows <- Cells (cells, Some text) :: t.rows

let add_rule t = t.rows <- Rule :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let missing = width - n in
    match align with
    | Left -> s ^ String.make missing ' '
    | Right -> String.make missing ' ' ^ s

let render t =
  let rows = List.rev t.rows in
  let widths = Array.make t.ncols 0 in
  let feed cells =
    List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c)) cells
  in
  feed t.header;
  List.iter (function Cells (c, _) -> feed c | Rule -> ()) rows;
  (* A span covers the columns after its [k] cells; the last column
     widens to fit a longer text. *)
  let spanned k = Array.fold_left ( + ) (3 * (t.ncols - 1 - k)) (Array.sub widths k (t.ncols - k)) in
  List.iter
    (function
      | Cells (c, Some text) ->
        widths.(t.ncols - 1) <- widths.(t.ncols - 1) + max 0 (String.length text - spanned (List.length c))
      | Cells (_, None) | Rule -> ())
    rows;
  let buf = Buffer.create 1024 in
  let rule () =
    Buffer.add_char buf '+';
    Array.iter
      (fun w ->
        Buffer.add_string buf (String.make (w + 2) '-');
        Buffer.add_char buf '+')
      widths;
    Buffer.add_char buf '\n'
  in
  let cell align width c =
    Buffer.add_char buf ' ';
    Buffer.add_string buf (pad align width c);
    Buffer.add_string buf " |"
  in
  let line ?span cells =
    Buffer.add_char buf '|';
    List.iteri (fun i c -> cell t.aligns.(i) widths.(i) c) cells;
    Option.iter (cell Left (spanned (List.length cells))) span;
    Buffer.add_char buf '\n'
  in
  rule ();
  line t.header;
  rule ();
  List.iter (function Cells (c, span) -> line ?span c | Rule -> rule ()) rows;
  rule ();
  Buffer.contents buf

let print t = print_string (render t)

let cell_float ?(decimals = 1) x = Printf.sprintf "%.*f" decimals x
