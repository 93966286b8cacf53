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
      is therefore rolled back if the search from (dst, rmin) reaches
      src at or before smax, with every accepted group in place, so
      merges on different links interact correctly.

   Both rewrites ask one question of one search ([reach]): the
   earliest position on each processor that happens after a start
   point, over the live messages at their current positions.

   The rewrite is semantics-preserving by construction.  The output is
   still checked as a whole on every run — {!Program.check} plus
   {!Program.simulate} — and the differential fuzz tier
   ({!Mimd_check.Fuzz}) proves value-identity across all executors. *)

module Trace = Mimd_obs.Trace
module Keys = Program.Keys

type stats = {
  messages_before : int;
  messages_after : int;
  elided : int;
  coalesced : int;
  forwarded_values : int;
  examined : int;
}

type fault = Keep_extra_send

let w = Program.width

let messages (p : Program.t) =
  Array.fold_left
    (fun acc (c : Program.code) ->
      let ins = c.instrs in
      let acc = ref acc in
      for k = 0 to Program.length c - 1 do
        let kind = ins.((k * w) + Program.field_kind) in
        if kind = Program.send || kind = Program.send_pack then incr acc
      done;
      !acc)
    0 p.code

(* FNV-1a ({!Mimd_util.Fnv}, as {!Full_sched.output_fingerprint}) over
   the instruction streams, so goldens pin the exact optimized
   programs: per instruction a kind code (1 compute, 2 send, 3 recv,
   4 send pack, 5 recv pack), then its instance or its tags and peer. *)
let fingerprint (p : Program.t) =
  Mimd_util.Fnv.digest @@ fun mix ->
  mix p.processors;
  Array.iter
    (fun (c : Program.code) ->
      mix 0x50;
      let ins = c.instrs and pool = c.pool in
      for k = 0 to Program.length c - 1 do
        let b = k * w in
        let kind = ins.(b + Program.field_kind) in
        if kind = Program.compute then begin
          mix 1;
          mix ins.(b + Program.field_node);
          mix ins.(b + Program.field_iter)
        end
        else begin
          mix
            (if kind = Program.send then 2
             else if kind = Program.recv then 3
             else if kind = Program.send_pack then 4
             else 5);
          let count = ins.(b + Program.field_count) and at = ins.(b + Program.field_at) in
          if count > 0 then begin
            mix ins.(b + Program.field_node);
            mix ins.(b + Program.field_iter)
          end;
          for i = 0 to (2 * (count - 1)) - 1 do
            mix pool.(at + i)
          done;
          mix ins.(b + Program.field_peer)
        end
      done)
    p.code

type msg = {
  tag : Program.tag;
  key : int;  (* the tag's dense instance key *)
  src : int;
  dst : int;
  send_idx : int;
  recv_idx : int;
  start : int;  (* the first position on src after the value exists there *)
  deadline : int;
      (* the position of the first Compute on dst that consumes the
         value — the real deadline a forwarded value must beat — or,
         when the graph records no consumer, just after the Recv *)
  mutable smax : int;  (* where the Send sits now: its group's smax, else send_idx *)
  mutable rmin : int;  (* where the Recv sits now: its group's rmin, else recv_idx *)
  mutable live : bool;
  mutable pinned : bool;  (* carries a forwarded value; must stay *)
  mutable extras : Program.tag list;
      (* forwarded tags riding this frame, in forwarding order once
         [elide] returns (built newest-first while it runs) *)
  mutable group : int;  (* coalescing group id, -1 = ungrouped *)
}

(* The input, indexed: every message in (src, send position) order,
   and [at.(proc).(idx)], the one that sends or receives at [idx]. *)
type input = { procs : int; keys : Keys.t; msgs : msg array; at : int array array }

(* Dense keys over every instance a program computes or sends.  A
   pack's further tags are left out: [collect] rejects packs. *)
let keys_of (p : Program.t) =
  Keys.scan (fun see ->
      Array.iter
        (fun (c : Program.code) ->
          let ins = c.instrs in
          for k = 0 to Program.length c - 1 do
            let b = k * w in
            if ins.(b + Program.field_kind) = Program.compute || ins.(b + Program.field_count) > 0
            then see ins.(b + Program.field_node) ins.(b + Program.field_iter)
          done)
        p.code)

(* The messages of a plain program, read off its records in place. *)
let collect (p : Program.t) =
  let code = p.code in
  let procs = Array.length code in
  let keys = keys_of p in
  let n = Keys.size keys in
  let key node iter = Keys.key keys ~node ~iter in
  (* Per processor, by instance key: where it first holds the value
     (its Compute, or the Recv that lands it) and first consumes it. *)
  let hold = Array.make n (-1) and use = Array.make n (-1) in
  let first table k idx = if k >= 0 && table.(k) < 0 then table.(k) <- idx in
  (* [limit.(proc).(idx)]: a Send's [start], a Recv's [deadline]. *)
  let limit = Array.map (fun c -> Array.make (Program.length c) (-1)) code in
  (* [recv_at.(key * procs + dst)]: where dst receives that value. *)
  let recv_at = Array.make (n * procs) (-1) in
  let recvs = ref 0 in
  Array.iteri
    (fun proc (c : Program.code) ->
      let ins = c.instrs in
      Array.fill hold 0 n (-1);
      Array.fill use 0 n (-1);
      for idx = 0 to Program.length c - 1 do
        let b = idx * w in
        let kind = ins.(b + Program.field_kind) in
        let node = ins.(b + Program.field_node) and iter = ins.(b + Program.field_iter) in
        if kind = Program.compute then begin
          first hold (key node iter) idx;
          List.iter
            (fun (e : Mimd_ddg.Graph.edge) ->
              if iter - e.distance >= 0 then first use (key e.src (iter - e.distance)) idx)
            (Mimd_ddg.Graph.preds p.graph node)
        end
        else if kind = Program.recv then begin
          let c = (key node iter * procs) + proc in
          if recv_at.(c) >= 0 then invalid_arg "Comm_opt.run: duplicate recv in input";
          recv_at.(c) <- idx;
          incr recvs;
          first hold (key node iter) idx
        end
        else if kind <> Program.send then invalid_arg "Comm_opt.run: program already optimized"
      done;
      for idx = 0 to Program.length c - 1 do
        let b = idx * w in
        let kind = ins.(b + Program.field_kind) in
        let k = key ins.(b + Program.field_node) ins.(b + Program.field_iter) in
        if kind = Program.send then limit.(proc).(idx) <- hold.(k) + 1
        else if kind = Program.recv then
          limit.(proc).(idx) <- (match use.(k) with -1 -> idx + 1 | u -> u)
      done)
    code;
  let msgs = ref [] in
  Array.iteri
    (fun proc (c : Program.code) ->
      let ins = c.instrs in
      for idx = 0 to Program.length c - 1 do
        let b = idx * w in
        if ins.(b + Program.field_kind) = Program.send then begin
          let node = ins.(b + Program.field_node) and iter = ins.(b + Program.field_iter) in
          let dst = ins.(b + Program.field_peer) in
          let key = key node iter in
          let c = (key * procs) + dst in
          let recv_idx = recv_at.(c) in
          let matched =
            recv_idx >= 0
            &&
            let r = code.(dst).instrs in
            r.((recv_idx * w) + Program.field_kind) = Program.recv
            && r.((recv_idx * w) + Program.field_peer) = proc
          in
          if not matched then invalid_arg "Comm_opt.run: unmatched send in input";
          recv_at.(c) <- -1;
          msgs :=
            { tag = { node; iter }; key; src = proc; dst; send_idx = idx; recv_idx;
              start = limit.(proc).(idx); deadline = limit.(dst).(recv_idx); smax = idx;
              rmin = recv_idx; live = true; pinned = false; extras = []; group = -1 }
            :: !msgs
        end
      done)
    code;
  if List.length !msgs <> !recvs then invalid_arg "Comm_opt.run: unmatched recv in input";
  let msgs = Array.of_list (List.rev !msgs) in
  let at = Array.map (fun c -> Array.make (Program.length c) (-1)) code in
  Array.iteri
    (fun i m ->
      at.(m.src).(m.send_idx) <- i;
      at.(m.dst).(m.recv_idx) <- i)
    msgs;
  { procs; keys; msgs; at }

(* The one happens-before search, an earliest-arrival worklist over
   processors.  [out.(p)] holds the messages p sends, ascending by own
   Send position.  After [reach ~from ~at], [dist.(q)] is the first
   position on q known to happen after the instruction at [at - 1] on
   [from]: a live message m whose Send sits at or after [dist.(m.src)]
   lands at its current Recv, so [dist.(m.dst)] is at most
   [m.rmin + 1].

   Each processor's [out] is scanned downwards from [next.(p)] and
   stops at the first own Send position below [dist.(p)].  That loses
   no edge: a grouped member sits at its group's smax, which is some
   member's own Send position, and that member — same link, same
   rmin — is scanned.  An entry scanned once is never scanned again in
   the same search: [dist] only falls, so its edge stays applied.  So
   every search examines each message at most once.

   [until = (goal, by)] stops the search as soon as [dist.(goal) <= by]
   and returns true; without it the search runs to its fixpoint. *)
type search = {
  out : msg array array;
  dist : int array;
  next : int array;
  queued : bool array;
  stack : int array;
  mutable examined : int;
}

let searcher { procs; msgs; _ } =
  let out = Array.make procs [] in
  for i = Array.length msgs - 1 downto 0 do
    out.(msgs.(i).src) <- msgs.(i) :: out.(msgs.(i).src)
  done;
  let dist = Array.make procs max_int and queued = Array.make procs false in
  let out = Array.map Array.of_list out in
  { out; dist; next = Array.make procs 0; queued; stack = Array.make procs 0; examined = 0 }

let reach ?until s ~from ~at =
  let goal, by = Option.value until ~default:(-1, 0) in
  Array.fill s.dist 0 (Array.length s.dist) max_int;
  Array.fill s.queued 0 (Array.length s.queued) false;
  Array.iteri (fun p o -> s.next.(p) <- Array.length o - 1) s.out;
  s.dist.(from) <- at;
  s.stack.(0) <- from;
  s.queued.(from) <- true;
  let top = ref 1 and found = ref false in
  while (not !found) && !top > 0 do
    decr top;
    let p = s.stack.(!top) in
    s.queued.(p) <- false;
    let o = s.out.(p) in
    while (not !found) && s.next.(p) >= 0 && o.(s.next.(p)).send_idx >= s.dist.(p) do
      let m = o.(s.next.(p)) in
      s.next.(p) <- s.next.(p) - 1;
      s.examined <- s.examined + 1;
      if m.live && m.rmin + 1 < s.dist.(m.dst) then begin
        s.dist.(m.dst) <- m.rmin + 1;
        if m.dst = goal && m.rmin + 1 <= by then found := true
        else if not s.queued.(m.dst) then begin
          s.queued.(m.dst) <- true;
          s.stack.(!top) <- m.dst;
          incr top
        end
      end
    done
  done;
  !found

(* Elision, in message order.  The search from m's [start] succeeds
   when it reaches m.dst no later than m's [deadline].  Landing after
   the original Recv but before the first use is fine — no instruction
   in between can observe the difference.  The chain is read off the
   search: a processor's parent is the unique message whose Recv sits
   at [dist - 1], so any exact search yields the same chain. *)
let elide s { procs; keys; msgs; at } =
  (* One tag per link per frame: [on_link] marks each (tag, link) some
     frame carries — seeded with every base tag — so a forwarded extra
     never collides with a base or another chain's extra on the same
     link. *)
  let on_link = Bytes.make (Keys.size keys * procs * procs) '\000' in
  let slot hop key = (((key * procs) + hop.src) * procs) + hop.dst in
  let mark hop key v = Bytes.set on_link (slot hop key) (if v then '\001' else '\000') in
  let free hop key = Bytes.get on_link (slot hop key) = '\000' in
  Array.iter (fun m -> mark m m.key true) msgs;
  let carries hop (t : Program.tag) = hop.tag = t || List.mem t hop.extras in
  let rec chain m acc proc guard =
    if proc = m.src then Some acc
    else if guard = 0 then None
    else
      let hop = msgs.(at.(proc).(s.dist.(proc) - 1)) in
      chain m (hop :: acc) hop.src (guard - 1)
  in
  let elided = ref 0 in
  Array.iter
    (fun m ->
      if m.live && not m.pinned then begin
        m.live <- false;
        (* Eliding m vacates its own tag's slot on its link, so a hop
           on the same link may carry it; restored if elision fails. *)
        mark m m.key false;
        ignore (reach s ~from:m.src ~at:m.start);
        let hops = if s.dist.(m.dst) <= m.deadline then chain m [] m.dst procs else None in
        match hops with
        | Some hops when List.for_all (fun hop -> carries hop m.tag || free hop m.key) hops ->
          incr elided;
          List.iter
            (fun hop ->
              hop.pinned <- true;
              if not (carries hop m.tag) then begin
                hop.extras <- m.tag :: hop.extras;
                mark hop m.key true
              end)
            hops
        | _ ->
          m.live <- true;
          mark m m.key true
      end)
    msgs;
  Array.iter (fun m -> m.extras <- List.rev m.extras) msgs;
  !elided

(* Greedy coalescing.  Candidate members are consecutive live messages
   (in send order) on one link, links in (src, dst) order, whose
   iteration span fits the window.  An extension places every member
   at the merged (smax, rmin) and is kept unless [reach] finds the
   merged Recv already happens-before the merged Send — the only way a
   merge can fail (see the header).  A rejection puts the members back
   and flushes the group, so link frames stay contiguous in send order
   and FIFO order is preserved.  Returns the groups, indexed by id. *)
let coalesce s ~window { procs; msgs; _ } =
  let links = Array.make (procs * procs) [] in
  for i = Array.length msgs - 1 downto 0 do
    let m = msgs.(i) in
    let l = (m.src * procs) + m.dst in
    if m.live then links.(l) <- m :: links.(l)
  done;
  let groups = ref [] and ngroups = ref 0 in
  let place members smax rmin =
    List.iter
      (fun x ->
        x.smax <- smax;
        x.rmin <- rmin)
      members
  in
  let flush = function
    | [] | [ _ ] -> ()
    | members ->
      List.iter (fun x -> x.group <- !ngroups) members;
      incr ngroups;
      groups := List.rev members :: !groups
  in
  (* [cur] is the open group, newest first, placed at (smax, rmin). *)
  let rec go cur smax rmin = function
    | [] -> flush cur
    | m :: rest ->
      let lo, hi =
        List.fold_left
          (fun (lo, hi) x -> (min lo x.tag.Program.iter, max hi x.tag.iter))
          (m.tag.Program.iter, m.tag.iter) cur
      in
      let smax' = max smax m.send_idx and rmin' = min rmin m.recv_idx in
      if cur <> [] && hi - lo < window then begin
        place (m :: cur) smax' rmin';
        if not (reach s ~from:m.dst ~at:(rmin' + 1) ~until:(m.src, smax')) then
          go (m :: cur) smax' rmin' rest
        else begin
          place cur smax rmin;
          place [ m ] m.send_idx m.recv_idx;
          flush cur;
          go [ m ] m.send_idx m.recv_idx rest
        end
      end
      else begin
        flush cur;
        go [ m ] m.send_idx m.recv_idx rest
      end
  in
  Array.iter (go [] 0 0) links;
  Array.of_list (List.rev !groups)

(* Every message at its current position: a grouped frame at its
   group's smax and rmin, carrying the base tags in member order, then
   each extra not already in the frame, in first-seen order. *)
let rebuild (p : Program.t) { msgs; at; _ } groups =
  let frames =
    Array.map
      (fun members ->
        let add acc t = if List.mem t acc then acc else t :: acc in
        List.rev
          (List.fold_left
             (fun acc m -> List.fold_left add acc m.extras)
             (List.rev_map (fun m -> m.tag) members)
             members))
      groups
  in
  let frame m = if m.group >= 0 then frames.(m.group) else m.tag :: m.extras in
  let plain m = m.group < 0 && m.extras = [] in
  Array.mapi
    (fun proc (c : Program.code) ->
      let ins = c.instrs in
      let kept = ref [] in
      for idx = Program.length c - 1 downto 0 do
        let keep i = kept := i :: !kept in
        let b = idx * w in
        let kind = ins.(b + Program.field_kind) and peer = ins.(b + Program.field_peer) in
        if kind = Program.compute then
          keep
            (Program.Compute
               { node = ins.(b + Program.field_node); iter = ins.(b + Program.field_iter) })
        else begin
          let m = msgs.(at.(proc).(idx)) in
          if kind = Program.send then begin
            if m.live && idx = m.smax then
              keep
                (if plain m then Program.Send { tag = m.tag; dst = peer }
                 else Program.Send_pack { tags = frame m; dst = peer })
          end
          else if m.live && idx = m.rmin then
            keep
              (if plain m then Program.Recv { tag = m.tag; src = peer }
               else Program.Recv_pack { tags = frame m; src = peer })
        end
      done;
      !kept)
    p.code

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
  let input = collect p in
  let search = searcher input in
  let messages_before = Array.length input.msgs in
  let elided =
    Trace.span ~cat:"compile" "compile.comm_opt.elide" (fun () -> elide search input)
  in
  let programs =
    Trace.span ~cat:"compile" "compile.comm_opt.coalesce" (fun () ->
        let groups = if window = 0 then [||] else coalesce search ~window input in
        rebuild p input groups)
  in
  let programs =
    match fault with
    | Some Keep_extra_send -> break_first_recv programs
    | None -> programs
  in
  let p' = Program.of_instrs p.graph programs in
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
    match Program.simulate p' with
    | Ok _ -> ()
    | Error f ->
      failwith
        (Format.asprintf "Comm_opt.run: optimized program infeasible: %a"
           (Program.pp_failure ~names:(Mimd_ddg.Graph.name p.graph))
           f))
  | Some _ -> ());
  let forwarded_values =
    Array.fold_left
      (fun acc m -> if m.live then acc + List.length m.extras else acc)
      0 input.msgs
  in
  let coalesced = messages_before - elided - messages_after in
  let examined = search.examined in
  (p', { messages_before; messages_after; elided; coalesced; forwarded_values; examined })
