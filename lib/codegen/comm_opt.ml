(* Synchronization-minimizing rewrite of a generated program.

   Two rewrites, applied in order:

   1. Elision with value forwarding.  A message m = (tag, P -> Q) can
      be dropped when a chain of *retained* messages, composed with
      same-processor program order, already carries a happens-before
      ordering from the point where m's value exists on P to a point
      on Q no later than m's original Recv.  Because every message in
      this codegen carries a needed value (not just an ordering), pure
      elision would starve Q — so m's value rides the chain: each hop
      frame gains the elided tag as an extra, and the hop's Recv lands
      it in the consumer's local store exactly where the ordering
      argument proves it is in time.  This is the transitive reduction
      of the cross-processor happens-before relation, restricted to
      message edges (Liao et al., arXiv:1211.4101).

   2. Coalescing.  Retained messages on the same (src, dst) pair whose
      iterations fall inside a window merge into one frame, sent at
      the latest member send position [smax] and received at the
      earliest member recv position [rmin].  A merge only moves member
      Sends later, to a point where every tag is already held, and
      member Recvs earlier, which lands values sooner; so the only
      thing a merge can break is progress.  It deadlocks exactly when
      it closes a happens-before cycle: the Recv at (dst, rmin) already
      happens-before the Send at (src, smax).  Every greedy extension
      is therefore checked by one earliest-arrival search from
      (dst, rmin) over the live frames at their current positions
      (every accepted group in place, so merges on different links
      interact correctly), and rolled back if the search reaches src
      at or before smax.

   The rewrite is semantics-preserving by construction.  The output is
   still checked as a whole on every run — {!Program.check} plus a
   full token simulation ([simulate]) — and the differential fuzz tier
   ({!Mimd_check.Fuzz}) proves value-identity across all executors. *)

module Trace = Mimd_obs.Trace

type stats = {
  messages_before : int;
  messages_after : int;
  elided : int;
  coalesced : int;
  forwarded_values : int;
}

type fault = Keep_extra_send

let messages (p : Program.t) =
  Array.fold_left
    (fun acc prog ->
      List.fold_left
        (fun acc instr ->
          match instr with
          | Program.Send _ | Program.Send_pack _ -> acc + 1
          | Program.Compute _ | Program.Recv _ | Program.Recv_pack _ -> acc)
        acc prog)
    0 p.Program.programs

(* Mirrors {!Full_sched.output_fingerprint}: FNV-1a over the instruction
   streams, so goldens pin the exact optimized programs. *)
let fingerprint (p : Program.t) =
  let fnv_prime = 0x100000001b3 in
  let h = ref 0x3bf29ce484222325 in
  let mix v = h := (!h lxor (v land max_int)) * fnv_prime land max_int in
  let mix_tag (t : Program.tag) =
    mix t.node;
    mix t.iter
  in
  mix p.processors;
  Array.iter
    (fun prog ->
      mix 0x50;
      List.iter
        (fun instr ->
          match instr with
          | Program.Compute { node; iter } ->
            mix 1;
            mix node;
            mix iter
          | Program.Send { tag; dst } ->
            mix 2;
            mix_tag tag;
            mix dst
          | Program.Recv { tag; src } ->
            mix 3;
            mix_tag tag;
            mix src
          | Program.Send_pack { tags; dst } ->
            mix 4;
            List.iter mix_tag tags;
            mix dst
          | Program.Recv_pack { tags; src } ->
            mix 5;
            List.iter mix_tag tags;
            mix src)
        prog)
    p.programs;
  Printf.sprintf "%016x" !h

type msg = {
  tag : Program.tag;
  src : int;
  dst : int;
  send_idx : int;
  recv_idx : int;
  mutable live : bool;
  mutable pinned : bool;  (* carries a forwarded value; must stay *)
  mutable extras : Program.tag list;
      (* forwarded tags riding this frame, in forwarding order once
         [elide] returns (built newest-first while it runs) *)
  mutable group : int;  (* coalescing group id, -1 = ungrouped *)
}

(* Index every message, the position at which each processor first
   holds each instance's value (its Compute, or the Recv that lands
   it), and the position of the first Compute that consumes it — the
   real deadline a forwarded value must beat. *)
let collect (p : Program.t) =
  let sends = Hashtbl.create 128 in
  let recvs = Hashtbl.create 128 in
  let avail = Hashtbl.create 128 in
  let first_use = Hashtbl.create 128 in
  Array.iteri
    (fun proc prog ->
      List.iteri
        (fun idx instr ->
          match instr with
          | Program.Compute { node; iter } ->
            if not (Hashtbl.mem avail (node, iter, proc)) then
              Hashtbl.replace avail (node, iter, proc) idx;
            List.iter
              (fun (e : Mimd_ddg.Graph.edge) ->
                let operand = (e.src, iter - e.distance, proc) in
                if iter - e.distance >= 0 && not (Hashtbl.mem first_use operand)
                then Hashtbl.replace first_use operand idx)
              (Mimd_ddg.Graph.preds p.graph node)
          | Program.Send { tag; dst } ->
            Hashtbl.replace sends (tag.node, tag.iter, proc, dst) idx
          | Program.Recv { tag; src } ->
            Hashtbl.replace recvs (tag.node, tag.iter, src, proc) idx;
            if not (Hashtbl.mem avail (tag.node, tag.iter, proc)) then
              Hashtbl.replace avail (tag.node, tag.iter, proc) idx
          | Program.Send_pack _ | Program.Recv_pack _ ->
            invalid_arg "Comm_opt.run: program already optimized")
        prog)
    p.programs;
  let msgs = ref [] in
  Hashtbl.iter
    (fun (node, iter, src, dst) send_idx ->
      match Hashtbl.find_opt recvs (node, iter, src, dst) with
      | Some recv_idx ->
        msgs :=
          {
            tag = { Program.node; iter };
            src;
            dst;
            send_idx;
            recv_idx;
            live = true;
            pinned = false;
            extras = [];
            group = -1;
          }
          :: !msgs
      | None -> invalid_arg "Comm_opt.run: unmatched send in input")
    sends;
  Hashtbl.iter
    (fun (node, iter, src, dst) _ ->
      if not (Hashtbl.mem sends (node, iter, src, dst)) then
        invalid_arg "Comm_opt.run: unmatched recv in input")
    recvs;
  let msgs =
    List.sort
      (fun a b -> compare (a.src, a.send_idx, a.dst) (b.src, b.send_idx, b.dst))
      !msgs
  in
  (msgs, avail, first_use)

(* Shortest-arrival search over processors: [dist.(p)] is the earliest
   position on p at which m's value (and ordering) is known to have
   arrived via retained messages.  An edge through msg' is usable when
   msg' sends at or after the arrival position on its source — program
   order bridges the gap.  Succeeds when the value reaches m.dst no
   later than [bound]: the first Compute on m.dst that consumes the
   value (the original Recv position is only a fallback when the graph
   records no consumer).  Landing after the original Recv but before
   the first use is fine — no instruction in between can observe the
   difference. *)
let implied_chain ~procs ~avail_pos ~bound msgs m =
  let dist = Array.make procs max_int in
  let parent = Array.make procs None in
  dist.(m.src) <- avail_pos;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun m' ->
        if
          m'.live
          && dist.(m'.src) <> max_int
          && m'.send_idx >= dist.(m'.src)
          && m'.recv_idx + 1 < dist.(m'.dst)
        then begin
          dist.(m'.dst) <- m'.recv_idx + 1;
          parent.(m'.dst) <- Some m';
          changed := true
        end)
      msgs
  done;
  if dist.(m.dst) <= bound then begin
    let rec walk acc proc guard =
      if proc = m.src then Some acc
      else if guard = 0 then None
      else
        match parent.(proc) with
        | None -> None
        | Some hop -> walk (hop :: acc) hop.src (guard - 1)
    in
    walk [] m.dst procs
  end
  else None

let elide ~procs ~avail ~first_use msgs =
  (* One tag per (src, dst) pair per frame: seed with every base tag so
     a forwarded extra never collides with a base or another chain's
     extra on the same link. *)
  let extra_seen = Hashtbl.create 128 in
  List.iter
    (fun m ->
      Hashtbl.replace extra_seen (m.src, m.dst, m.tag.Program.node, m.tag.iter) ())
    msgs;
  let carries hop (t : Program.tag) = hop.tag = t || List.mem t hop.extras in
  let elided = ref 0 in
  List.iter
    (fun m ->
      if m.live && not m.pinned then begin
        let avail_pos =
          Hashtbl.find avail (m.tag.Program.node, m.tag.iter, m.src) + 1
        in
        let bound =
          match
            Hashtbl.find_opt first_use (m.tag.Program.node, m.tag.iter, m.dst)
          with
          | Some use_idx -> use_idx
          | None -> m.recv_idx + 1
        in
        m.live <- false;
        (* Eliding m vacates its own tag's slot on its link, so a hop
           on the same link may carry it; restored if elision fails. *)
        let self_key = (m.src, m.dst, m.tag.Program.node, m.tag.iter) in
        Hashtbl.remove extra_seen self_key;
        let chain = implied_chain ~procs ~avail_pos ~bound msgs m in
        let ok =
          match chain with
          | None -> false
          | Some hops ->
            List.for_all
              (fun hop ->
                carries hop m.tag
                || not
                     (Hashtbl.mem extra_seen
                        (hop.src, hop.dst, m.tag.Program.node, m.tag.iter)))
              hops
        in
        if ok then begin
          incr elided;
          List.iter
            (fun hop ->
              hop.pinned <- true;
              if not (carries hop m.tag) then begin
                hop.extras <- m.tag :: hop.extras;
                Hashtbl.replace extra_seen
                  (hop.src, hop.dst, m.tag.Program.node, m.tag.iter)
                  ()
              end)
            (Option.get chain)
        end
        else begin
          m.live <- true;
          Hashtbl.replace extra_seen self_key ()
        end
      end)
    msgs;
  List.iter (fun m -> m.extras <- List.rev m.extras) msgs;
  !elided

let rebuild (p : Program.t) msgs groups =
  let by_send = Hashtbl.create 128 in
  let by_recv = Hashtbl.create 128 in
  List.iter
    (fun m ->
      Hashtbl.replace by_send (m.src, m.send_idx) m;
      Hashtbl.replace by_recv (m.dst, m.recv_idx) m)
    msgs;
  let ginfo = Hashtbl.create 16 in
  List.iter
    (fun (gid, members) ->
      let smax = List.fold_left (fun a m -> max a m.send_idx) min_int members in
      let rmin = List.fold_left (fun a m -> min a m.recv_idx) max_int members in
      (* Base tags in member order, then each extra not already in the
         frame, in first-seen order. *)
      let base = List.map (fun m -> m.tag) members in
      let seen = Hashtbl.create 16 in
      List.iter (fun t -> Hashtbl.replace seen t ()) base;
      let extras_rev =
        List.fold_left
          (fun acc m ->
            List.fold_left
              (fun acc t ->
                if Hashtbl.mem seen t then acc
                else begin
                  Hashtbl.add seen t ();
                  t :: acc
                end)
              acc m.extras)
          [] members
      in
      let tags = base @ List.rev extras_rev in
      Hashtbl.replace ginfo gid (smax, rmin, tags))
    groups;
  Array.mapi
    (fun proc prog ->
      List.concat
        (List.mapi
           (fun idx instr ->
             match instr with
             | Program.Compute _ -> [ instr ]
             | Program.Send { dst; _ } ->
               let m = Hashtbl.find by_send (proc, idx) in
               if not m.live then []
               else if m.group >= 0 then begin
                 let smax, _, tags = Hashtbl.find ginfo m.group in
                 if idx = smax then [ Program.Send_pack { tags; dst } ] else []
               end
               else if m.extras <> [] then
                 [ Program.Send_pack { tags = m.tag :: m.extras; dst } ]
               else [ instr ]
             | Program.Recv { src; _ } ->
               let m = Hashtbl.find by_recv (proc, idx) in
               if not m.live then []
               else if m.group >= 0 then begin
                 let _, rmin, tags = Hashtbl.find ginfo m.group in
                 if idx = rmin then [ Program.Recv_pack { tags; src } ] else []
               end
               else if m.extras <> [] then
                 [ Program.Recv_pack { tags = m.tag :: m.extras; src } ]
               else [ instr ]
             | Program.Send_pack _ | Program.Recv_pack _ -> assert false)
           prog))
    p.programs

(* Deterministic token simulation of an instruction-stream array:
   non-blocking sends into per-link in-flight sets, recvs that block
   until a frame whose head (representative) tag matches theirs has
   been sent — mirroring the runtime's stash, which pulls frames off a
   link in any order and matches by rep tag — and operand-availability
   checks at every Compute and Send.  Run order does not matter —
   availability is determined by each processor's own prefix, so the
   simulation is confluent: it either drains completely or reports a
   failure. *)
let simulate ~graph programs =
  let procs = Array.length programs in
  let progs = Array.map Array.of_list programs in
  let pc = Array.make procs 0 in
  let have = Array.init procs (fun _ -> Hashtbl.create 64) in
  (* (src, dst, rep tag) -> full frame tag list, in flight *)
  let links : (int * int * Program.tag, Program.tag list) Hashtbl.t =
    Hashtbl.create 64
  in
  let in_flight = ref 0 in
  let error = ref None in
  let fail msg = if !error = None then error := Some msg in
  let holds proc (t : Program.tag) =
    t.iter < 0 || Hashtbl.mem have.(proc) (t.node, t.iter)
  in
  let land_tags proc tags =
    List.iter
      (fun (t : Program.tag) -> Hashtbl.replace have.(proc) (t.node, t.iter) ())
      tags
  in
  let push src dst tags =
    match tags with
    | [] -> fail "empty frame"
    | rep :: _ ->
      Hashtbl.replace links (src, dst, rep) tags;
      incr in_flight
  in
  (* One step of [proc]; true when it advanced. *)
  let step proc =
    if !error <> None || pc.(proc) >= Array.length progs.(proc) then false
    else
      match progs.(proc).(pc.(proc)) with
      | Program.Compute { node; iter } ->
        let missing =
          List.exists
            (fun (e : Mimd_ddg.Graph.edge) ->
              not (holds proc { Program.node = e.src; iter = iter - e.distance }))
            (Mimd_ddg.Graph.preds graph node)
        in
        if missing then begin
          fail (Printf.sprintf "operand missing at compute on P%d" proc);
          false
        end
        else begin
          Hashtbl.replace have.(proc) (node, iter) ();
          pc.(proc) <- pc.(proc) + 1;
          true
        end
      | Program.Send { tag; dst } ->
        if not (holds proc tag) then begin
          fail (Printf.sprintf "value sent before available on P%d" proc);
          false
        end
        else begin
          push proc dst [ tag ];
          pc.(proc) <- pc.(proc) + 1;
          true
        end
      | Program.Send_pack { tags; dst } ->
        if List.exists (fun t -> not (holds proc t)) tags then begin
          fail (Printf.sprintf "value sent before available on P%d" proc);
          false
        end
        else begin
          push proc dst tags;
          pc.(proc) <- pc.(proc) + 1;
          true
        end
      | Program.Recv { tag; src } | Program.Recv_pack { tags = tag :: _; src }
        -> (
        let expected =
          match progs.(proc).(pc.(proc)) with
          | Program.Recv_pack { tags; _ } -> tags
          | _ -> [ tag ]
        in
        match Hashtbl.find_opt links (src, proc, tag) with
        | None -> false
        | Some frame when frame = expected ->
          Hashtbl.remove links (src, proc, tag);
          decr in_flight;
          land_tags proc frame;
          pc.(proc) <- pc.(proc) + 1;
          true
        | Some _ ->
          fail (Printf.sprintf "frame shape mismatch on P%d<-P%d" proc src);
          false)
      | Program.Recv_pack { tags = []; _ } ->
        fail "empty recv frame";
        false
  in
  let progress = ref true in
  while !progress && !error = None do
    progress := false;
    for proc = 0 to procs - 1 do
      while step proc do
        progress := true
      done
    done
  done;
  match !error with
  | Some msg -> Error msg
  | None ->
    let stuck = ref [] in
    Array.iteri
      (fun proc n -> if pc.(proc) < n then stuck := proc :: !stuck)
      (Array.map Array.length progs);
    if !stuck <> [] then
      Error
        (Printf.sprintf "deadlock: processor(s) %s blocked"
           (String.concat "," (List.map string_of_int (List.rev !stuck))))
    else if !in_flight > 0 then Error "undelivered frame left on a link"
    else Ok ()

(* Greedy coalescing with a happens-before cycle check.  Candidate
   members are consecutive messages (in send order) on one (src, dst)
   link whose iteration span fits the window.  [bounds] holds every
   group's current (smax, rmin); a grouped message sits at its group's
   positions, any other at its own.  An extension is accepted unless
   the merged Recv at (dst, rmin) already happens-before the merged
   Send at (src, smax) — the only way a merge can fail (see the header).
   Rejections roll the extension back and flush the group, so link
   frames stay contiguous in send order and FIFO order is preserved. *)
let coalesce ~window ~procs msgs =
  let live = List.filter (fun m -> m.live) msgs in
  let pairs = List.sort_uniq compare (List.map (fun m -> (m.src, m.dst)) live) in
  let outgoing = Array.make procs [] in
  List.iter (fun m -> outgoing.(m.src) <- m :: outgoing.(m.src)) live;
  let bounds = Hashtbl.create 64 in
  let pos m =
    if m.group >= 0 then Hashtbl.find bounds m.group else (m.send_idx, m.recv_idx)
  in
  (* Earliest-arrival search from (dst, rmin) over program order and
     send->recv edges: [dist.(p)] is the earliest position on p that
     happens-after the start.  Recvs match by tag (the stash), so links
     add no FIFO edges. *)
  let closes_cycle ~src ~smax ~dst ~rmin =
    let dist = Array.make procs max_int in
    let queued = Array.make procs false in
    dist.(dst) <- rmin;
    queued.(dst) <- true;
    let rec search = function
      | [] -> false
      | p :: work ->
        queued.(p) <- false;
        let work =
          List.fold_left
            (fun work m ->
              let s, r = pos m in
              if s >= dist.(p) && r < dist.(m.dst) then begin
                dist.(m.dst) <- r;
                if queued.(m.dst) then work
                else begin
                  queued.(m.dst) <- true;
                  m.dst :: work
                end
              end
              else work)
            work outgoing.(p)
        in
        dist.(src) <= smax || search work
    in
    search [ dst ]
  in
  let next_gid = ref 0 in
  let committed = ref [] in
  List.iter
    (fun (src, dst) ->
      let ms = List.filter (fun m -> m.src = src && m.dst = dst) live in
      (* already sorted by send_idx from [collect]'s global order *)
      let flush cur gid =
        match cur with
        | [] | [ _ ] -> ()
        | members -> committed := (gid, List.rev members) :: !committed
      in
      let span extra cur =
        List.fold_left
          (fun (lo, hi) m -> (min lo m.tag.Program.iter, max hi m.tag.iter))
          (extra.tag.Program.iter, extra.tag.iter)
          cur
      in
      (* [gid] is the current group's id once it has >= 2 members, -1
         while [cur] is a singleton. *)
      let rec go cur gid = function
        | [] -> flush cur gid
        | m :: rest -> (
          match cur with
          | [] -> go [ m ] (-1) rest
          | _ ->
            let lo, hi = span m cur in
            let g = if gid >= 0 then gid else !next_gid in
            if hi - lo < window then begin
              let smax, rmin =
                List.fold_left
                  (fun (s, r) x -> (max s x.send_idx, min r x.recv_idx))
                  (m.send_idx, m.recv_idx) cur
              in
              let prev = Hashtbl.find_opt bounds g in
              Hashtbl.replace bounds g (smax, rmin);
              List.iter (fun x -> x.group <- g) (m :: cur);
              if not (closes_cycle ~src ~smax ~dst ~rmin) then begin
                if gid < 0 then incr next_gid;
                go (m :: cur) g rest
              end
              else begin
                (match prev with
                | Some b -> Hashtbl.replace bounds g b
                | None -> Hashtbl.remove bounds g);
                m.group <- -1;
                if gid < 0 then List.iter (fun x -> x.group <- -1) cur;
                flush cur gid;
                go [ m ] (-1) rest
              end
            end
            else begin
              flush cur gid;
              go [ m ] (-1) rest
            end)
      in
      go [] (-1) ms)
    pairs;
  List.rev !committed

(* The oracle-has-teeth probe: keep a frame's Send but drop its Recv,
   exactly the footprint of an unsound elision that forgot the
   consumer.  {!Program.check} must flag the unmatched send. *)
let break_first_recv programs =
  let removed = ref false in
  Array.map
    (fun prog ->
      if !removed then prog
      else
        List.filter
          (fun instr ->
            match instr with
            | (Program.Recv _ | Program.Recv_pack _) when not !removed ->
              removed := true;
              false
            | _ -> true)
          prog)
    programs

let run ?(window = 4) ?fault (p : Program.t) =
  if window < 0 then invalid_arg "Comm_opt.run: negative window";
  let procs = p.processors in
  let msgs, avail, first_use = collect p in
  let messages_before = List.length msgs in
  let elided =
    Trace.span ~cat:"compile" "compile.comm_opt.elide" (fun () ->
        elide ~procs ~avail ~first_use msgs)
  in
  let programs =
    Trace.span ~cat:"compile" "compile.comm_opt.coalesce" (fun () ->
        let groups = if window = 0 then [] else coalesce ~window ~procs msgs in
        rebuild p msgs groups)
  in
  let programs =
    match fault with
    | Some Keep_extra_send -> break_first_recv programs
    | None -> programs
  in
  let p' = { p with programs } in
  let messages_after = messages p' in
  (match fault with
  | None -> (
    Trace.span ~cat:"compile" "compile.comm_opt.check" @@ fun () ->
    (match Program.check p' with
    | [] -> ()
    | d :: _ ->
      failwith
        (Format.asprintf "Comm_opt.run: optimized program ill-formed: %a"
           Program.pp_defect d));
    match simulate ~graph:p.graph programs with
    | Ok () -> ()
    | Error msg ->
      failwith ("Comm_opt.run: optimized program infeasible: " ^ msg))
  | Some _ -> ());
  let forwarded_values =
    List.fold_left
      (fun acc m -> if m.live then acc + List.length m.extras else acc)
      0 msgs
  in
  let coalesced = messages_before - elided - messages_after in
  ( p',
    { messages_before; messages_after; elided; coalesced; forwarded_values } )
