type tag = { node : int; iter : int }

type instr =
  | Compute of { node : int; iter : int }
  | Send of { tag : tag; dst : int }
  | Recv of { tag : tag; src : int }
  | Send_pack of { tags : tag list; dst : int }
  | Recv_pack of { tags : tag list; src : int }

let width = 6
let field_kind = 0
let field_node = 1
let field_iter = 2
let field_peer = 3
let field_at = 4
let field_count = 5
let compute = 0
let send = 1
let send_pack = 2
let recv = 3
let recv_pack = 4

type code = { instrs : int array; pool : int array }

type t = { graph : Mimd_ddg.Graph.t; processors : int; code : code array }

let length c = Array.length c.instrs / width
let instruction_count t = Array.fold_left (fun acc c -> acc + length c) 0 t.code

let computes_of t proc =
  let c = t.code.(proc) in
  let ins = c.instrs in
  let out = ref [] in
  for k = length c - 1 downto 0 do
    let b = k * width in
    if ins.(b + field_kind) = compute then
      out := (ins.(b + field_node), ins.(b + field_iter)) :: !out
  done;
  !out

(* [f node iter] over the tags of the message at record offset [b],
   head first: the head is in the record, the rest in the pool. *)
let iter_tags c b f =
  let ins = c.instrs in
  let count = ins.(b + field_count) in
  if count > 0 then begin
    f ins.(b + field_node) ins.(b + field_iter);
    let at = ins.(b + field_at) in
    for i = 0 to count - 2 do
      f c.pool.(at + (2 * i)) c.pool.(at + (2 * i) + 1)
    done
  end

let tags_of c b =
  let tags = ref [] in
  iter_tags c b (fun node iter -> tags := { node; iter } :: !tags);
  List.rev !tags

let decode c pc =
  let ins = c.instrs and b = pc * width in
  let kind = ins.(b + field_kind) and peer = ins.(b + field_peer) in
  let node = ins.(b + field_node) and iter = ins.(b + field_iter) in
  if kind = compute then Compute { node; iter }
  else if kind = send then Send { tag = { node; iter }; dst = peer }
  else if kind = recv then Recv { tag = { node; iter }; src = peer }
  else if kind = send_pack then Send_pack { tags = tags_of c b; dst = peer }
  else Recv_pack { tags = tags_of c b; src = peer }

let to_instrs t = Array.map (fun c -> List.init (length c) (decode c)) t.code

let encode prog =
  let tail_words = function
    | Send_pack { tags; _ } | Recv_pack { tags; _ } -> 2 * max 0 (List.length tags - 1)
    | Compute _ | Send _ | Recv _ -> 0
  in
  let instrs = Array.make (width * List.length prog) 0 in
  let pool = Array.make (List.fold_left (fun acc i -> acc + tail_words i) 0 prog) 0 in
  let top = ref 0 in
  List.iteri
    (fun pc instr ->
      let b = pc * width in
      let record kind node iter peer count =
        instrs.(b + field_kind) <- kind;
        instrs.(b + field_node) <- node;
        instrs.(b + field_iter) <- iter;
        instrs.(b + field_peer) <- peer;
        instrs.(b + field_count) <- count
      in
      let pack kind tags peer =
        match tags with
        | [] -> record kind 0 0 peer 0
        | (head : tag) :: rest ->
          record kind head.node head.iter peer (List.length tags);
          instrs.(b + field_at) <- !top;
          List.iter
            (fun (t : tag) ->
              pool.(!top) <- t.node;
              pool.(!top + 1) <- t.iter;
              top := !top + 2)
            rest
      in
      match instr with
      | Compute { node; iter } -> record compute node iter (-1) 0
      | Send { tag; dst } -> record send tag.node tag.iter dst 1
      | Recv { tag; src } -> record recv tag.node tag.iter src 1
      | Send_pack { tags; dst } -> pack send_pack tags dst
      | Recv_pack { tags; src } -> pack recv_pack tags src)
    prog;
  { instrs; pool }

let of_instrs graph programs =
  { graph; processors = Array.length programs; code = Array.map encode programs }

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
  let code = t.code in
  (* One scan sizes every table: the instance window of every Compute
     and tag (tags that only a Send or Recv names included), the
     processor ids messages name (out-of-range ones too), and the tag
     count. *)
  let peer_lo = ref 0 and peer_hi = ref (Array.length code - 1) in
  let ntags = ref 0 in
  let keys =
    Keys.scan (fun see ->
        let see_tag node iter =
          see node iter;
          incr ntags
        in
        Array.iter
          (fun c ->
            let ins = c.instrs in
            for k = 0 to length c - 1 do
              let b = k * width in
              if ins.(b + field_kind) = compute then see ins.(b + field_node) ins.(b + field_iter)
              else if ins.(b + field_count) > 0 then begin
                let q = ins.(b + field_peer) in
                if q < !peer_lo then peer_lo := q;
                if q > !peer_hi then peer_hi := q;
                iter_tags c b see_tag
              end
            done)
          code)
  in
  let peers = !peer_hi - !peer_lo + 1 in
  let cell node iter q = (Keys.key keys ~node ~iter * peers) + (q - !peer_lo) in
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
  let rec on_chain m q = m >= 0 && (who.(m) = q || on_chain next.(m) q) in
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
  (* The message being walked: its processor, code, pc and peer. *)
  let proc = ref 0 and cur = ref { instrs = [||]; pool = [||] } in
  let pc = ref 0 and peer = ref 0 in
  let send_tag node iter =
    let c = cell node iter !peer in
    if on_chain sends_to.(c) !proc then
      add (Duplicate_send { proc = !proc; instr = decode !cur !pc })
    else push sends_to c !proc
  in
  let recv_tag node iter =
    let c = cell node iter !peer in
    if not (on_chain recvs_from.(c) !proc) then push recvs_from c !proc
  in
  Array.iteri
    (fun j c ->
      let ins = c.instrs in
      proc := j;
      cur := c;
      for k = 0 to length c - 1 do
        let b = k * width in
        let kind = ins.(b + field_kind) in
        if kind = compute then begin
          let node = ins.(b + field_node) and iter = ins.(b + field_iter) in
          let key = Keys.key keys ~node ~iter in
          if Bytes.get computed key <> '\000' then
            add (Duplicate_compute { proc = j; node; iter })
          else Bytes.set computed key '\001'
        end
        else if ins.(b + field_peer) = j then add (Self_message { proc = j; instr = decode c k })
        else begin
          pc := k;
          peer := ins.(b + field_peer);
          iter_tags c b (if kind = send || kind = send_pack then send_tag else recv_tag)
        end
      done)
    code;
  (* Self messages were never recorded, so they are unmatched too. *)
  let unmatched_send node iter =
    if not (on_chain recvs_from.(cell node iter !proc) !peer) then
      add (Unmatched_send { proc = !proc; instr = decode !cur !pc })
  in
  let unmatched_recv node iter =
    if not (on_chain sends_to.(cell node iter !proc) !peer) then
      add (Unmatched_recv { proc = !proc; instr = decode !cur !pc })
  in
  Array.iteri
    (fun j c ->
      let ins = c.instrs in
      proc := j;
      cur := c;
      for k = 0 to length c - 1 do
        let b = k * width in
        let kind = ins.(b + field_kind) in
        if kind <> compute then begin
          pc := k;
          peer := ins.(b + field_peer);
          iter_tags c b
            (if kind = send || kind = send_pack then unmatched_send else unmatched_recv)
        end
      done)
    code;
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

let rec same_tail a s b r i = i < 0 || (a.(s + i) = b.(r + i) && same_tail a s b r (i - 1))

(* The frame a Recv names is the one the Send carried: the lookup
   matched the head tag, so single-tag frames agree; packs must carry the
   same tags in the same order.  [bs] and [br] are record offsets in the
   sender's code [cs] and the receiver's code [cr]. *)
let same_frame cs bs cr br =
  let count = cs.instrs.(bs + field_count) in
  count = cr.instrs.(br + field_count)
  && same_tail cs.pool cs.instrs.(bs + field_at) cr.pool cr.instrs.(br + field_at)
       ((2 * (count - 1)) - 1)

let simulate ?step ?(capacity = max_int) ?(latency = fun ~src:_ ~dst:_ -> 0) ?(record = false)
    t =
  if capacity < 1 then invalid_arg "Program.simulate: capacity < 1";
  let graph = t.graph in
  let code = t.code in
  let n = Array.length code in
  (* One scan sizes every table: the instance window of every Compute
     and tag, the processor ids messages name (out-of-range ones too, so
     a stray peer only fills or starves its own link), and the number of
     Sends. *)
  let lo = ref 0 and hi = ref (n - 1) and sends = ref 0 in
  let keys =
    Keys.scan (fun see ->
        Array.iter
          (fun c ->
            let ins = c.instrs in
            for k = 0 to length c - 1 do
              let b = k * width in
              let kind = ins.(b + field_kind) in
              if kind = compute then see ins.(b + field_node) ins.(b + field_iter)
              else begin
                if kind = send || kind = send_pack then incr sends;
                if ins.(b + field_count) > 0 then begin
                  let q = ins.(b + field_peer) in
                  if q < !lo then lo := q;
                  if q > !hi then hi := q;
                  iter_tags c b see
                end
              end
            done)
          code)
  in
  let lo = !lo in
  let width_p = !hi - lo + 1 and size = Keys.size keys in
  let { Keys.node_lo; width = kw; iter_lo; span } = keys in
  let key node iter = ((iter - iter_lo) * kw) + (node - node_lo) in
  (* [held] is one byte per (processor, instance): set by its Compute
     or by the Recv that lands it. *)
  let held = Bytes.make (n * size) '\000' in
  (* Values from before iteration 0 are the loop's inputs, held by all. *)
  let[@inline] holds j ~node ~iter =
    let dn = node - node_lo and di = iter - iter_lo in
    iter < 0
    || dn >= 0 && dn < kw && di >= 0 && di < span
       && Bytes.unsafe_get held ((j * size) + (di * kw) + dn) <> '\000'
  in
  let need j pc node iter =
    if not (holds j ~node ~iter) then
      raise
        (Fail (Missing_operand { proc = j; instr = decode code.(j) pc; operand = { node; iter } }))
  in
  (* A Compute's operands: each predecessor's instance at its distance. *)
  let rec operands j pc iter = function
    | [] -> ()
    | (e : Mimd_ddg.Graph.edge) :: es ->
      need j pc e.src (iter - e.distance);
      operands j pc iter es
  in
  (* Frames in flight, by id in send order.  [pending.(key head)] heads
     the chain (through [f_next]) of frames with that head tag sent and
     not yet received — one per consumer of the value.  [f_pc] is the
     Send's pc on [f_src]. *)
  let pending = Array.make size (-1) in
  let f_next = Array.make !sends (-1) in
  let f_src = Array.make !sends 0 and f_dst = Array.make !sends 0 in
  let f_arrival = Array.make !sends 0 and f_seq = Array.make !sends 0 in
  let f_pc = Array.make !sends 0 in
  let frames = ref 0 in
  (* A value step's state: each frame's payload.  Without a step, each
     retirement pays one test of [stepping]. *)
  let stepping = Option.is_some step in
  let step = Option.value step ~default:(fun ~proc:_ ~pc:_ _ -> None) in
  let payload = if stepping then Array.make !sends None else [||] in
  (* Unlink and return the frame [src] sent [dst] in chain [k], or -1. *)
  let rec take k ~src ~dst prev m =
    if m < 0 then -1
    else if f_src.(m) = src && f_dst.(m) = dst then begin
      if prev < 0 then pending.(k) <- f_next.(m) else f_next.(prev) <- f_next.(m);
      m
    end
    else take k ~src ~dst m f_next.(m)
  in
  (* Per link [src * width_p + dst]: frames sent, frames the receiver has
     pulled off it (in FIFO order, into its stash), and whether the
     sender is parked on a full link.  Unpulled = sent - pulled never
     exceeds [capacity]. *)
  let link src dst = ((src - lo) * width_p) + (dst - lo) in
  let sent = Array.make (width_p * width_p) 0 and pulled = Array.make (width_p * width_p) 0 in
  let sender_parked = Array.make (width_p * width_p) false in
  (* Per processor: clock, next pc, and the (head key, src) cell and
     link of the Recv it is parked on, or -1. *)
  let time = Array.make n 0 and pcs = Array.make n 0 in
  let wait_cell = Array.make n (-1) and wait_link = Array.make n (-1) in
  let runnable = Queue.create () and queued = Array.make n false in
  let delivered = ref 0 in
  let comm_cycles = ref 0 and busy_cycles = ref 0 and steps = ref 0 in
  let trace = ref [] in
  let retire j pc at =
    incr steps;
    if record then trace := { time = at; proc = j; instr = decode code.(j) pc } :: !trace
  in
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
        let src = (l / width_p) + lo in
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
     processor's pc and clock live in locals while it runs. *)
  let advance j =
    let c = code.(j) in
    let ins = c.instrs and pool = c.pool and len = length c in
    let pc = ref pcs.(j) and clock = ref time.(j) and parked = ref false in
    while not !parked do
      if !pc >= len then parked := true
      else begin
        let b = !pc * width in
        let kind = ins.(b + field_kind) in
        let node = ins.(b + field_node) and iter = ins.(b + field_iter) in
        let count = ins.(b + field_count) and at = ins.(b + field_at) in
        if kind = compute then begin
          operands j !pc iter (Mimd_ddg.Graph.preds graph node);
          if stepping then ignore (step ~proc:j ~pc:!pc None);
          Bytes.unsafe_set held ((j * size) + key node iter) '\001';
          let lat = Mimd_ddg.Graph.latency graph node in
          clock := !clock + lat;
          busy_cycles := !busy_cycles + lat;
          retire j !pc !clock;
          incr pc
        end
        else if kind = send || kind = send_pack then begin
          let dst = ins.(b + field_peer) in
          if count > 0 then need j !pc node iter;
          for i = 0 to count - 2 do
            need j !pc pool.(at + (2 * i)) pool.(at + (2 * i) + 1)
          done;
          let l = link j dst in
          if sent.(l) - pulled.(l) >= capacity then begin
            sender_parked.(l) <- true;
            parked := true
          end
          else begin
            (* a pack is one frame on the link: one latency draw, one
               message, identified by its head tag *)
            let lat = latency ~src:j ~dst in
            if count = 0 then invalid_arg "Program.simulate: empty pack";
            let m = !frames in
            incr frames;
            let k = key node iter in
            f_src.(m) <- j;
            f_dst.(m) <- dst;
            f_arrival.(m) <- !clock + lat;
            f_seq.(m) <- sent.(l);
            f_pc.(m) <- !pc;
            if stepping then payload.(m) <- step ~proc:j ~pc:!pc None;
            f_next.(m) <- pending.(k);
            pending.(k) <- m;
            sent.(l) <- sent.(l) + 1;
            comm_cycles := !comm_cycles + lat;
            retire j !pc !clock;
            incr pc;
            if dst >= 0 && dst < n && wait_link.(dst) = l then begin
              (* a parked receiver takes every frame off its link as it
                 comes *)
              pull l ~upto:sent.(l) ~at:time.(dst);
              if wait_cell.(dst) = (k * width_p) + (j - lo) then begin
                wait_cell.(dst) <- -1;
                wait_link.(dst) <- -1;
                wake dst
              end
            end
          end
        end
        else begin
          let src = ins.(b + field_peer) in
          if count = 0 then invalid_arg "Program.simulate: empty pack";
          let k = key node iter in
          let l = link src j in
          let m = take k ~src ~dst:j (-1) pending.(k) in
          if m < 0 then begin
            wait_cell.(j) <- (k * width_p) + (src - lo);
            wait_link.(j) <- l;
            pull l ~upto:sent.(l) ~at:!clock;
            parked := true
          end
          else begin
            let sender = code.(f_src.(m)) in
            if not (same_frame sender (f_pc.(m) * width) c b) then
              raise
                (Fail
                   (Frame_mismatch
                      { proc = j; instr = decode c !pc; sent = decode sender f_pc.(m) }));
            if stepping then ignore (step ~proc:j ~pc:!pc payload.(m));
            if f_arrival.(m) > !clock then clock := f_arrival.(m);
            pull l ~upto:(f_seq.(m) + 1) ~at:!clock;
            let base = j * size in
            Bytes.unsafe_set held (base + k) '\001';
            for i = 0 to count - 2 do
              Bytes.unsafe_set held
                (base + key pool.(at + (2 * i)) pool.(at + (2 * i) + 1))
                '\001'
            done;
            incr delivered;
            retire j !pc !clock;
            incr pc
          end
        end
      end
    done;
    pcs.(j) <- !pc;
    time.(j) <- !clock
  in
  match
    for j = 0 to n - 1 do
      if length code.(j) > 0 then enqueue j
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
      if pcs.(j) < length code.(j) then blocked := (j, decode code.(j) pcs.(j)) :: !blocked
    done;
    if !blocked <> [] then Error (Stuck { delivered = !delivered; blocked = !blocked })
    else if !delivered < !frames then begin
      let k = ref 0 in
      while pending.(!k) < 0 do
        incr k
      done;
      let m = pending.(!k) in
      Error
        (Undelivered { src = f_src.(m); dst = f_dst.(m); instr = decode code.(f_src.(m)) f_pc.(m) })
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
    (fun proc c ->
      Format.fprintf ppf "PE%d:@," proc;
      for pc = 0 to length c - 1 do
        Format.fprintf ppf "    %a@," (pp_instr ~names) (decode c pc)
      done)
    t.code;
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
