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

(* ------------------------------------------------------------------ *)
(* Simulation                                                          *)

type event = { time : int; proc : int; instr : instr }

type outcome = {
  makespan : int;
  proc_finish : int array;
  messages : int;
  comm_cycles : int;
  busy_cycles : int;
  trace : event list;
  steps : int;
}

type failure =
  | Stuck of { delivered : int; blocked : (int * instr) list }
  | Missing_operand of { proc : int; instr : instr; operand : tag }
  | Frame_mismatch of { proc : int; instr : instr; sent : instr }
  | Undelivered of { src : int; dst : int; instr : instr }

exception Fail of failure

let head_of = function
  | Send { tag; _ } | Recv { tag; _ } | Send_pack { tags = tag :: _; _ }
  | Recv_pack { tags = tag :: _; _ } ->
    tag
  | Send_pack { tags = []; _ } | Recv_pack { tags = []; _ } ->
    invalid_arg "Program.simulate: empty pack"
  | Compute _ -> invalid_arg "Program.simulate: not a message"

(* The frame a Recv names is the one the Send carried: the lookup
   matched the head tag, so single-tag frames agree; packs must carry the
   same tags in the same order. *)
let same_frame sent recv =
  match (sent, recv) with
  | (Send _ | Send_pack { tags = [ _ ]; _ }), (Recv _ | Recv_pack { tags = [ _ ]; _ }) -> true
  | Send_pack { tags = a; _ }, Recv_pack { tags = b; _ } -> a = b
  | _ -> false

(* [simulate]'s value step [f] as processor [j] retires its next
   instruction: a Send's result becomes frame [m]'s payload, a Recv is
   handed it, a Compute ([m < 0]) gets nothing. *)
let value_step f pcs payload j ~send m =
  let pc = pcs.(j) in
  pcs.(j) <- pc + 1;
  if send then payload.(m) <- f ~proc:j ~pc None
  else ignore (f ~proc:j ~pc (if m < 0 then None else payload.(m)))

let simulate ?step ?(capacity = max_int) ?(latency = fun ~src:_ ~dst:_ -> 0) ?(record = false)
    t =
  if capacity < 1 then invalid_arg "Program.simulate: capacity < 1";
  let graph = t.graph in
  let n = Array.length t.programs in
  (* One scan sizes every table: the instance window of every Compute
     and tag, the processor ids messages name (out-of-range ones too, so
     a stray peer only fills or starves its own link), and the number of
     Sends. *)
  let lo = ref 0 and hi = ref (n - 1) and sends = ref 0 in
  let keys =
    Keys.scan (fun see ->
        let peer q (tg : tag) =
          if q < !lo then lo := q;
          if q > !hi then hi := q;
          see tg.node tg.iter
        in
        Array.iter
          (List.iter (function
            | Compute { node; iter } -> see node iter
            | Send { tag; dst } ->
              incr sends;
              peer dst tag
            | Send_pack { tags; dst } ->
              incr sends;
              List.iter (peer dst) tags
            | Recv { tag; src } -> peer src tag
            | Recv_pack { tags; src } -> List.iter (peer src) tags))
          t.programs)
  in
  let lo = !lo in
  let width = !hi - lo + 1 and size = Keys.size keys in
  let { Keys.node_lo; width = kw; iter_lo; span } = keys in
  let key (tg : tag) = ((tg.iter - iter_lo) * kw) + (tg.node - node_lo) in
  (* [held] is one byte per (processor, instance): set by its Compute
     or by the Recv that lands it. *)
  let held = Bytes.make (n * size) '\000' in
  let land_ j (tg : tag) = Bytes.unsafe_set held ((j * size) + key tg) '\001' in
  (* Values from before iteration 0 are the loop's inputs, held by all. *)
  let[@inline] holds j ~node ~iter =
    let dn = node - node_lo and di = iter - iter_lo in
    iter < 0
    || dn >= 0 && dn < kw && di >= 0 && di < span
       && Bytes.unsafe_get held ((j * size) + (di * kw) + dn) <> '\000'
  in
  let need j instr (tg : tag) =
    if not (holds j ~node:tg.node ~iter:tg.iter) then
      raise (Fail (Missing_operand { proc = j; instr; operand = tg }))
  in
  (* A Compute's operands: each predecessor's instance at its distance. *)
  let rec operands j instr iter = function
    | [] -> ()
    | (e : Mimd_ddg.Graph.edge) :: es ->
      let at = iter - e.distance in
      if not (holds j ~node:e.src ~iter:at) then
        raise (Fail (Missing_operand { proc = j; instr; operand = { node = e.src; iter = at } }));
      operands j instr iter es
  in
  (* Frames in flight, by id in send order.  [pending.(key head)] heads
     the chain (through [f_next]) of frames with that head tag sent and
     not yet received — one per consumer of the value. *)
  let pending = Array.make size (-1) in
  let f_next = Array.make !sends (-1) in
  let f_src = Array.make !sends 0 and f_dst = Array.make !sends 0 in
  let f_arrival = Array.make !sends 0 and f_seq = Array.make !sends 0 in
  let f_send = Array.make !sends (Compute { node = 0; iter = 0 }) in
  let frames = ref 0 in
  (* A value step's state: each frame's payload, each processor's pc.
     Without a step, each retirement pays one test of [stepping]. *)
  let stepping = Option.is_some step in
  let step = Option.value step ~default:(fun ~proc:_ ~pc:_ _ -> None) in
  let payload = if stepping then Array.make !sends None else [||] in
  let pcs = if stepping then Array.make n 0 else [||] in
  (* Unlink and return the frame [src] sent [dst] in chain [k], or -1. *)
  let rec take k ~src ~dst prev m =
    if m < 0 then -1
    else if f_src.(m) = src && f_dst.(m) = dst then begin
      if prev < 0 then pending.(k) <- f_next.(m) else f_next.(prev) <- f_next.(m);
      m
    end
    else take k ~src ~dst m f_next.(m)
  in
  (* Per link [src * width + dst]: frames sent, frames the receiver has
     pulled off it (in FIFO order, into its stash), and whether the
     sender is parked on a full link.  Unpulled = sent - pulled never
     exceeds [capacity]. *)
  let link src dst = ((src - lo) * width) + (dst - lo) in
  let sent = Array.make (width * width) 0 and pulled = Array.make (width * width) 0 in
  let sender_parked = Array.make (width * width) false in
  (* Per processor: clock, remaining program, and the (head key, src)
     cell and link of the Recv it is parked on, or -1. *)
  let time = Array.make n 0 and todo = Array.copy t.programs in
  let wait_cell = Array.make n (-1) and wait_link = Array.make n (-1) in
  let runnable = Queue.create () and queued = Array.make n false in
  let delivered = ref 0 in
  let comm_cycles = ref 0 and busy_cycles = ref 0 and steps = ref 0 in
  let trace = ref [] in
  let enqueue j =
    if not queued.(j) then begin
      queued.(j) <- true;
      Queue.add j runnable
    end
  in
  let wake j =
    incr steps;
    enqueue j
  in
  (* The receiver pulls every frame up to [upto] off link [l] at its
     current clock; a sender parked on the full link resumes, no
     earlier than that pull. *)
  let pull l ~upto ~at =
    if upto > pulled.(l) then begin
      pulled.(l) <- upto;
      if sender_parked.(l) then begin
        sender_parked.(l) <- false;
        let src = (l / width) + lo in
        time.(src) <- max time.(src) at;
        wake src
      end
    end
  in
  (* Run one processor until it finishes or parks: on a Recv whose frame
     has not been sent (re-queued by that Send) or on a Send into a full
     link (re-queued by the receiver's pull).  Each processor executes
     its own instructions strictly in program order, so the per-link
     sequence of [latency] draws — every send on a link issues from the
     same source processor — does not depend on the run order.  The
     processor's program and clock live in locals while it runs. *)
  let advance j =
    let prog = ref todo.(j) and clock = ref time.(j) and parked = ref false in
    while not !parked do
      match !prog with
      | [] -> parked := true
      | (Compute { node; iter } as instr) :: rest ->
        operands j instr iter (Mimd_ddg.Graph.preds graph node);
        if stepping then value_step step pcs payload j ~send:false (-1);
        Bytes.unsafe_set held ((j * size) + ((iter - iter_lo) * kw) + (node - node_lo)) '\001';
        let lat = Mimd_ddg.Graph.latency graph node in
        clock := !clock + lat;
        busy_cycles := !busy_cycles + lat;
        prog := rest;
        incr steps;
        if record then trace := { time = !clock; proc = j; instr } :: !trace
      | ((Send { dst; _ } | Send_pack { dst; _ }) as instr) :: rest ->
        (match instr with
        | Send_pack { tags; _ } -> List.iter (need j instr) tags
        | _ -> need j instr (head_of instr));
        let l = link j dst in
        if sent.(l) - pulled.(l) >= capacity then begin
          sender_parked.(l) <- true;
          parked := true
        end
        else begin
          (* a pack is one frame on the link: one latency draw, one
             message, identified by its head tag *)
          let lat = latency ~src:j ~dst in
          let m = !frames in
          incr frames;
          let k = key (head_of instr) in
          f_src.(m) <- j;
          f_dst.(m) <- dst;
          f_arrival.(m) <- !clock + lat;
          f_seq.(m) <- sent.(l);
          f_send.(m) <- instr;
          if stepping then value_step step pcs payload j ~send:true m;
          f_next.(m) <- pending.(k);
          pending.(k) <- m;
          sent.(l) <- sent.(l) + 1;
          comm_cycles := !comm_cycles + lat;
          prog := rest;
          incr steps;
          if record then trace := { time = !clock; proc = j; instr } :: !trace;
          if dst >= 0 && dst < n && wait_link.(dst) = l then begin
            (* a parked receiver takes every frame off its link as it
               comes *)
            pull l ~upto:sent.(l) ~at:time.(dst);
            if wait_cell.(dst) = (k * width) + (j - lo) then begin
              wait_cell.(dst) <- -1;
              wait_link.(dst) <- -1;
              wake dst
            end
          end
        end
      | ((Recv { src; _ } | Recv_pack { src; _ }) as instr) :: rest ->
        let k = key (head_of instr) in
        let l = link src j in
        let m = take k ~src ~dst:j (-1) pending.(k) in
        if m < 0 then begin
          wait_cell.(j) <- (k * width) + (src - lo);
          wait_link.(j) <- l;
          pull l ~upto:sent.(l) ~at:!clock;
          parked := true
        end
        else begin
          if not (same_frame f_send.(m) instr) then
            raise (Fail (Frame_mismatch { proc = j; instr; sent = f_send.(m) }));
          if stepping then value_step step pcs payload j ~send:false m;
          if f_arrival.(m) > !clock then clock := f_arrival.(m);
          pull l ~upto:(f_seq.(m) + 1) ~at:!clock;
          (match instr with
          | Recv_pack { tags; _ } -> List.iter (land_ j) tags
          | _ -> land_ j (head_of instr));
          incr delivered;
          prog := rest;
          incr steps;
          if record then trace := { time = !clock; proc = j; instr } :: !trace
        end
    done;
    todo.(j) <- !prog;
    time.(j) <- !clock
  in
  match
    for j = 0 to n - 1 do
      if todo.(j) <> [] then enqueue j
    done;
    while not (Queue.is_empty runnable) do
      let j = Queue.take runnable in
      queued.(j) <- false;
      advance j
    done
  with
  | exception Fail f -> Error f
  | () ->
    (* The queue drained: every processor is done or parked for good. *)
    let blocked = ref [] in
    for j = n - 1 downto 0 do
      match todo.(j) with [] -> () | instr :: _ -> blocked := (j, instr) :: !blocked
    done;
    if !blocked <> [] then Error (Stuck { delivered = !delivered; blocked = !blocked })
    else if !delivered < !frames then begin
      let k = ref 0 in
      while pending.(!k) < 0 do
        incr k
      done;
      let m = pending.(!k) in
      Error (Undelivered { src = f_src.(m); dst = f_dst.(m); instr = f_send.(m) })
    end
    else
      Ok
        {
          makespan = Array.fold_left max 0 time;
          proc_finish = time;
          messages = !frames;
          comm_cycles = !comm_cycles;
          busy_cycles = !busy_cycles;
          trace = List.rev !trace;
          steps = !steps;
        }

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

let pp_failure ~names ppf = function
  | Stuck { delivered; blocked } ->
    Format.fprintf ppf "stuck after %d message(s) delivered:" delivered;
    List.iter
      (fun (j, instr) -> Format.fprintf ppf " PE%d on [%a]" j (pp_instr ~names) instr)
      blocked
  | Missing_operand { proc; instr; operand } ->
    Format.fprintf ppf "operand %s[%d] missing on PE%d at [%a]" (names operand.node)
      operand.iter proc (pp_instr ~names) instr
  | Frame_mismatch { proc; instr; sent } ->
    Format.fprintf ppf "frame shape mismatch on PE%d: [%a] receives [%a]" proc
      (pp_instr ~names) instr (pp_instr ~names) sent
  | Undelivered { src; dst; instr } ->
    Format.fprintf ppf "undelivered frame PE%d -> PE%d: [%a]" src dst (pp_instr ~names) instr
