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

(* Dense keys over the (node, iter) pairs a program names: the window
   [node_lo, node_lo + width) x [iter_lo, iter_lo + span) covers every
   pair [scan] saw, and (node, iter) keys to [(iter - iter_lo) * width +
   (node - node_lo)] — iter x nodes + node for a program over a graph's
   nodes. *)
module Keys = struct
  type t = { node_lo : int; width : int; iter_lo : int; span : int }

  let scan iter_pairs =
    let node_lo = ref max_int and node_hi = ref min_int in
    let iter_lo = ref max_int and iter_hi = ref min_int in
    iter_pairs (fun node iter ->
        if node < !node_lo then node_lo := node;
        if node > !node_hi then node_hi := node;
        if iter < !iter_lo then iter_lo := iter;
        if iter > !iter_hi then iter_hi := iter);
    if !node_lo > !node_hi then { node_lo = 0; width = 0; iter_lo = 0; span = 0 }
    else
      {
        node_lo = !node_lo;
        width = !node_hi - !node_lo + 1;
        iter_lo = !iter_lo;
        span = !iter_hi - !iter_lo + 1;
      }

  let size t = t.width * t.span

  let key t ~node ~iter =
    let dn = node - t.node_lo and di = iter - t.iter_lo in
    if dn < 0 || dn >= t.width || di < 0 || di >= t.span then -1 else (di * t.width) + dn
end

let check t =
  let programs = t.programs in
  (* One scan sizes every table: the instance window of every Compute
     and tag (tags that only a Send or Recv names included), the
     processor ids messages name (out-of-range ones too), and the tag
     count. *)
  let peer_lo = ref 0 and peer_hi = ref (Array.length programs - 1) in
  let ntags = ref 0 in
  let keys =
    Keys.scan (fun see ->
        let tag q (tg : tag) =
          if q < !peer_lo then peer_lo := q;
          if q > !peer_hi then peer_hi := q;
          see tg.node tg.iter;
          incr ntags
        in
        Array.iter
          (List.iter (function
            | Compute { node; iter } -> see node iter
            | Send { tag = tg; dst = q } | Recv { tag = tg; src = q } -> tag q tg
            | Send_pack { tags; dst = q } | Recv_pack { tags; src = q } ->
              List.iter (tag q) tags))
          programs)
  in
  let peers = !peer_hi - !peer_lo + 1 in
  let cell (tg : tag) q =
    (Keys.key keys ~node:tg.node ~iter:tg.iter * peers) + (q - !peer_lo)
  in
  (* A message's identity is (tag, producing proc, consuming proc).
     [sends_to.(cell tag dst)] heads the chain of procs that send [tag]
     to [dst]; [recvs_from.(cell tag src)] heads the chain of procs that
     receive [tag] from [src].  Chains link through [next]/[who], one
     link per distinct message, so memory is O(instances x processors +
     tags) and a chain is as long as the number of distinct peers. *)
  let sends_to = Array.make (Keys.size keys * peers) (-1) in
  let recvs_from = Array.make (Keys.size keys * peers) (-1) in
  let next = Array.make !ntags (-1) and who = Array.make !ntags 0 in
  let links = ref 0 in
  let mem heads c q =
    let rec go m = m >= 0 && (who.(m) = q || go next.(m)) in
    go heads.(c)
  in
  let push heads c q =
    let m = !links in
    incr links;
    who.(m) <- q;
    next.(m) <- heads.(c);
    heads.(c) <- m
  in
  let computed = Bytes.make (Keys.size keys) '\000' in
  let defects = ref [] in
  let add d = defects := d :: !defects in
  Array.iteri
    (fun proc prog ->
      let send instr dst (tg : tag) =
        let c = cell tg dst in
        if mem sends_to c proc then add (Duplicate_send { proc; instr })
        else push sends_to c proc
      in
      let recv src (tg : tag) =
        let c = cell tg src in
        if not (mem recvs_from c proc) then push recvs_from c proc
      in
      List.iter
        (fun instr ->
          match instr with
          | Compute { node; iter } ->
            let k = Keys.key keys ~node ~iter in
            if Bytes.get computed k <> '\000' then
              add (Duplicate_compute { proc; node; iter })
            else Bytes.set computed k '\001'
          | (Send { dst = q; _ } | Send_pack { dst = q; _ } | Recv { src = q; _ }
            | Recv_pack { src = q; _ })
            when q = proc ->
            add (Self_message { proc; instr })
          | Send { tag; dst } -> send instr dst tag
          | Send_pack { tags; dst } -> List.iter (send instr dst) tags
          | Recv { tag; src } -> recv src tag
          | Recv_pack { tags; src } -> List.iter (recv src) tags)
        prog)
    programs;
  (* Self messages were never recorded, so they are unmatched too. *)
  Array.iteri
    (fun proc prog ->
      let send instr dst tg =
        if not (mem recvs_from (cell tg proc) dst) then add (Unmatched_send { proc; instr })
      in
      let recv instr src tg =
        if not (mem sends_to (cell tg proc) src) then add (Unmatched_recv { proc; instr })
      in
      List.iter
        (fun instr ->
          match instr with
          | Compute _ -> ()
          | Send { tag; dst } -> send instr dst tag
          | Send_pack { tags; dst } -> List.iter (send instr dst) tags
          | Recv { tag; src } -> recv instr src tag
          | Recv_pack { tags; src } -> List.iter (recv instr src) tags)
        prog)
    programs;
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
