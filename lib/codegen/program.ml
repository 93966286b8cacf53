type tag = { node : int; iter : int }

type instr =
  | Compute of { node : int; iter : int }
  | Send of { tag : tag; dst : int }
  | Recv of { tag : tag; src : int }
  | Send_pack of { tags : tag list; dst : int }
  | Recv_pack of { tags : tag list; src : int }

type t = {
  graph : Mimd_ddg.Graph.t;
  processors : int;
  programs : instr list array;
}

let instruction_count t =
  Array.fold_left (fun acc prog -> acc + List.length prog) 0 t.programs

let computes_of t proc =
  List.filter_map
    (function
      | Compute { node; iter } -> Some (node, iter)
      | Send _ | Recv _ | Send_pack _ | Recv_pack _ -> None)
    t.programs.(proc)

type defect =
  | Unmatched_recv of { proc : int; instr : instr }
  | Unmatched_send of { proc : int; instr : instr }
  | Duplicate_send of { proc : int; instr : instr }
  | Duplicate_compute of { proc : int; node : int; iter : int }
  | Self_message of { proc : int; instr : instr }

let check t =
  let defects = ref [] in
  (* A message's identity: (tag, producing proc, consuming proc). *)
  let sends = Hashtbl.create 256 in
  let recvs = Hashtbl.create 256 in
  let computes = Hashtbl.create 256 in
  Array.iteri
    (fun proc prog ->
      List.iter
        (fun instr ->
          match instr with
          | Compute { node; iter } ->
            if Hashtbl.mem computes (node, iter) then
              defects := Duplicate_compute { proc; node; iter } :: !defects
            else Hashtbl.replace computes (node, iter) proc
          | Send { tag; dst } ->
            if dst = proc then defects := Self_message { proc; instr } :: !defects
            else begin
              let key = (tag.node, tag.iter, proc, dst) in
              if Hashtbl.mem sends key then
                defects := Duplicate_send { proc; instr } :: !defects
              else Hashtbl.replace sends key ()
            end
          | Recv { tag; src } ->
            if src = proc then defects := Self_message { proc; instr } :: !defects
            else Hashtbl.replace recvs (tag.node, tag.iter, src, proc) ()
          | Send_pack { tags; dst } ->
            if dst = proc then defects := Self_message { proc; instr } :: !defects
            else
              List.iter
                (fun (tag : tag) ->
                  let key = (tag.node, tag.iter, proc, dst) in
                  if Hashtbl.mem sends key then
                    defects := Duplicate_send { proc; instr } :: !defects
                  else Hashtbl.replace sends key ())
                tags
          | Recv_pack { tags; src } ->
            if src = proc then defects := Self_message { proc; instr } :: !defects
            else
              List.iter
                (fun (tag : tag) ->
                  Hashtbl.replace recvs (tag.node, tag.iter, src, proc) ())
                tags)
        prog)
    t.programs;
  Array.iteri
    (fun proc prog ->
      List.iter
        (fun instr ->
          match instr with
          | Recv { tag; src } ->
            if not (Hashtbl.mem sends (tag.node, tag.iter, src, proc)) then
              defects := Unmatched_recv { proc; instr } :: !defects
          | Send { tag; dst } ->
            if not (Hashtbl.mem recvs (tag.node, tag.iter, proc, dst)) then
              defects := Unmatched_send { proc; instr } :: !defects
          | Recv_pack { tags; src } ->
            List.iter
              (fun (tag : tag) ->
                if not (Hashtbl.mem sends (tag.node, tag.iter, src, proc)) then
                  defects := Unmatched_recv { proc; instr } :: !defects)
              tags
          | Send_pack { tags; dst } ->
            List.iter
              (fun (tag : tag) ->
                if not (Hashtbl.mem recvs (tag.node, tag.iter, proc, dst)) then
                  defects := Unmatched_send { proc; instr } :: !defects)
              tags
          | Compute _ -> ())
        prog)
    t.programs;
  List.rev !defects

let pp_tags ~names ppf tags =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
       (fun ppf (t : tag) -> Format.fprintf ppf "%s[%d]" (names t.node) t.iter))
    tags

let pp_instr ~names ppf = function
  | Compute { node; iter } -> Format.fprintf ppf "%s[%d]" (names node) iter
  | Send { tag; dst } -> Format.fprintf ppf "SEND %s[%d] -> PE%d" (names tag.node) tag.iter dst
  | Recv { tag; src } -> Format.fprintf ppf "RECV %s[%d] <- PE%d" (names tag.node) tag.iter src
  | Send_pack { tags; dst } ->
    Format.fprintf ppf "SEND %a -> PE%d" (pp_tags ~names) tags dst
  | Recv_pack { tags; src } ->
    Format.fprintf ppf "RECV %a <- PE%d" (pp_tags ~names) tags src

let pp_defect ppf d =
  let generic label proc = Format.fprintf ppf "%s on PE%d" label proc in
  match d with
  | Unmatched_recv { proc; _ } -> generic "unmatched recv" proc
  | Unmatched_send { proc; _ } -> generic "unmatched send" proc
  | Duplicate_send { proc; _ } -> generic "duplicate send" proc
  | Duplicate_compute { proc; node; iter } ->
    Format.fprintf ppf "duplicate compute of (%d,%d) on PE%d" node iter proc
  | Self_message { proc; _ } -> generic "self message" proc

let pp ppf t =
  let names i = Mimd_ddg.Graph.name t.graph i in
  Format.fprintf ppf "@[<v>PARBEGIN@,";
  Array.iteri
    (fun proc prog ->
      Format.fprintf ppf "PE%d:@," proc;
      List.iter (fun i -> Format.fprintf ppf "    %a@," (pp_instr ~names) i) prog)
    t.programs;
  Format.fprintf ppf "PAREND@]"
