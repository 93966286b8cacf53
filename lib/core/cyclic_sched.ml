module Graph = Mimd_ddg.Graph
module Topo = Mimd_ddg.Topo
module Config = Mimd_machine.Config
module Trace = Mimd_obs.Trace

exception No_pattern of string

type stats = {
  pops : int;
  iterations_touched : int;
  configurations_checked : int;
  detection_cycle : int;
  candidates_rejected : int;
}

type result = { pattern : Pattern.t; stats : stats }

module Iset = Set.Make (Int)

type order = Lexicographic | Critical_path

(* Per-processor timeline: a flat per-cycle occupancy arena.  Cell [c]
   holds the finish cycle of the busy interval covering it (0 = free —
   valid intervals finish at >= 1) and the instance key of the entry
   that owns it.  Slot probing reads and jumps over machine-word cells
   with no allocation.  [next] is a skip pointer per busy cell: every
   cell in [c, next.(c)) is busy, so following it from any cell
   reaches the first free cell at or after it; path compression keeps
   the chains short.  Cells only ever go from free to busy, so a
   pointer never skips a free cell.  The arrays grow by doubling;
   reads beyond the high-water mark mean "free". *)
type timeline = {
  mutable cap : int;
  mutable fin : int array; (* cycle -> finish of covering interval, 0 = free *)
  mutable own : int array; (* owner's instance key, meaningful where fin > 0 *)
  mutable next : int array; (* meaningful where fin > 0 *)
}

let new_timeline () = { cap = 0; fin = [||]; own = [||]; next = [||] }

let ensure_capacity tl n =
  if n > tl.cap then begin
    let cap = max 1024 (max n (2 * tl.cap)) in
    let grow a =
      let b = Array.make cap 0 in
      Array.blit a 0 b 0 tl.cap;
      b
    in
    tl.fin <- grow tl.fin;
    tl.own <- grow tl.own;
    tl.next <- grow tl.next;
    tl.cap <- cap
  end

let place tl ~key ~start ~len =
  let f = start + len in
  ensure_capacity tl f;
  for c = start to f - 1 do
    tl.fin.(c) <- f;
    tl.own.(c) <- key;
    tl.next.(c) <- f
  done

let is_free tl c = c >= tl.cap || tl.fin.(c) = 0

(* Smallest free cell >= c; every busy cell on the way is pointed
   straight at it.  Top-level recursion with explicit arguments, so a
   probe allocates no closure. *)
let rec root tl c = if is_free tl c then c else root tl tl.next.(c)

let rec compress tl c r =
  if c < r then begin
    let n = tl.next.(c) in
    tl.next.(c) <- r;
    compress tl n r
  end

let next_free tl c =
  let r = root tl c in
  compress tl c r;
  r

(* Earliest start >= ready of a free [len]-cycle window: jump to the
   first free cell, then scan the rest of the window; a busy cell in
   it rules out every start up to its interval's finish, so retry from
   there. *)
let rec probe tl t len =
  let t = next_free tl t in
  scan tl t (t + 1) len

and scan tl t c len =
  if c >= t + len then t
  else if is_free tl c then scan tl t (c + 1) len
  else probe tl tl.fin.(c) len

let first_fit tl ~ready ~len = probe tl ready len

(* Entries whose execution interval intersects [top, bottom] on one
   processor: walk backward from [bottom], hopping interval starts,
   while starts can still reach the window.  [entry_of] turns an
   owner key back into its entry. *)
let overlapping tl ~entry_of ~max_latency ~top ~bottom =
  let out = ref [] in
  let c = ref (min bottom (tl.cap - 1)) in
  let stop = ref false in
  while (not !stop) && !c >= 0 do
    let f = tl.fin.(!c) in
    if f = 0 then decr c
    else begin
      let e : Schedule.entry = entry_of tl.own.(!c) in
      if e.start + max_latency > top then begin
        if f > top then out := e :: !out;
        c := e.start - 1
      end
      else stop := true
    end
  done;
  !out

(* Node instances are identified by the int-packed pair
   [(iter lsl node_bits) lor node], and every per-instance table
   (start, processor, admission count) is a
   directly-indexed int array over that key space — sized once for a
   bounded run, grown by doubling for an unbounded one —
   a machine-word read or write per access, no hashing and no boxed
   entry until the caller asks for one.  The ready queue is a binary
   min-heap of ints packing (iter, normalized priority, node) so that
   integer order coincides with the tuple's lexicographic order; the
   keys are unique, so pops come out in exactly that order.  The graph
   is flattened into CSR int arrays (latency, predecessor source,
   distance and communication cost, successor destination and
   distance) so the per-instance loops run over ints with no closure,
   option or tuple.  The frontier only ever answers "minimum
   ready-bound", so it is kept as a multiset of rb values: an [Iset.t]
   of the distinct bounds plus a per-bound multiplicity array. *)
type state = {
  graph : Graph.t;
  machine : Config.t;
  limit : int; (* schedule iterations < limit only; max_int = unbounded *)
  lat : int array; (* node -> latency *)
  pred_off : int array; (* preds of v: pred_off.(v) .. pred_off.(v+1)-1 *)
  pred_src : int array;
  pred_dist : int array;
  pred_cost : int array; (* Config.edge_cost of the edge *)
  succ_off : int array;
  succ_dst : int array;
  succ_dist : int array;
  timelines : timeline array;
  mutable inst_cap : int; (* capacity of the three instance arrays *)
  mutable start_of : int array; (* -1 when absent *)
  mutable proc_of : int array; (* meaningful where start_of >= 0 *)
  mutable counts : int array; (* max_int = never decremented *)
  mutable heap : int array; (* ready queue: packed (iter, prio, node) *)
  mutable heap_len : int;
  mutable fr_set : Iset.t; (* distinct ready-bounds in the frontier *)
  mutable fr_cap : int;
  mutable fr_count : int array; (* rb -> multiplicity *)
  mutable pops : int;
  mutable max_iter : int;
  mutable makespan : int;
  max_latency : int;
  n_dist0_preds : int array;
  priority : int array;
  (* packing parameters *)
  node_bits : int;
  prio_bits : int;
  prio_base : int; (* subtract to normalize priorities to >= 0 *)
  iter_cap : int; (* exclusive bound on packable iteration numbers *)
  (* per-call scratch for schedule_one, length = processors *)
  raw_max : int array; (* max finish of preds resident on each proc *)
  comm_max : int array; (* max finish + comm of preds on each proc *)
}

let grow_int a ~old_cap ~cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 old_cap;
  b

let ensure_inst st key =
  if key >= st.inst_cap then begin
    let old_cap = st.inst_cap in
    let cap = max (2 * old_cap) (key + 1) in
    st.start_of <- grow_int st.start_of ~old_cap ~cap (-1);
    st.proc_of <- grow_int st.proc_of ~old_cap ~cap 0;
    st.counts <- grow_int st.counts ~old_cap ~cap max_int;
    st.inst_cap <- cap
  end

(* Start cycle of a scheduled instance, -1 when it is not (yet). *)
let start_at st key = if key < st.inst_cap then st.start_of.(key) else -1

let check_preconditions g =
  if Graph.max_distance g > 1 then
    invalid_arg "Cyclic_sched: dependence distances must be 0 or 1 (run Unwind.normalize)";
  if not (Topo.is_zero_acyclic g) then
    invalid_arg "Cyclic_sched: the distance-0 subgraph must be acyclic"

(* Static pop priority inside one iteration.  Lexicographic is the
   paper's "any consistent ordering"; Critical_path favours nodes with
   the longest latency-weighted distance-0 chain still ahead of them,
   the classic list-scheduling priority. *)
let priorities graph = function
  | Lexicographic -> Array.make (Graph.node_count graph) 0
  | Critical_path ->
    let order = Topo.sort_zero graph in
    let height = Array.make (Graph.node_count graph) 0 in
    List.iter
      (fun v ->
        let tail =
          List.fold_left
            (fun acc (e : Graph.edge) ->
              if e.distance = 0 then max acc height.(e.dst) else acc)
            0 (Graph.succs graph v)
        in
        height.(v) <- Graph.latency graph v + tail)
      (List.rev order);
    Array.map (fun h -> -h) height

let bits_for m =
  (* smallest b >= 1 with m < 2^b *)
  let rec go b = if m < 1 lsl b then b else go (b + 1) in
  go 1

let pack_inst st ~node ~iter = (iter lsl st.node_bits) lor node
let inst_node st key = key land ((1 lsl st.node_bits) - 1)
let inst_iter st key = key lsr st.node_bits

let entry_of st key : Schedule.entry =
  {
    inst = { node = inst_node st key; iter = inst_iter st key };
    proc = st.proc_of.(key);
    start = st.start_of.(key);
  }

let pack_ready st ~iter ~prio ~node =
  assert (iter < st.iter_cap);
  ((iter lsl st.prio_bits) lor (prio - st.prio_base)) lsl st.node_bits lor node

let ready_iter st key = key lsr (st.prio_bits + st.node_bits)
let ready_node st key = key land ((1 lsl st.node_bits) - 1)

let heap_push st x =
  if st.heap_len = Array.length st.heap then
    st.heap <- grow_int st.heap ~old_cap:st.heap_len ~cap:(2 * st.heap_len) 0;
  let h = st.heap in
  let i = ref st.heap_len in
  st.heap_len <- st.heap_len + 1;
  while !i > 0 && h.((!i - 1) / 2) > x do
    let parent = (!i - 1) / 2 in
    h.(!i) <- h.(parent);
    i := parent
  done;
  h.(!i) <- x

let heap_pop st =
  let h = st.heap in
  let top = h.(0) in
  let n = st.heap_len - 1 in
  st.heap_len <- n;
  if n > 0 then begin
    let x = h.(n) in
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let c = if l + 1 < n && h.(l + 1) < h.(l) then l + 1 else l in
        if h.(c) < x then begin
          h.(!i) <- h.(c);
          i := c
        end
        else sifting := false
      end
    done;
    h.(!i) <- x
  end;
  top

(* The earliest start any placement of (v, i) may take: the latest
   finish among its predecessors.  Fixed once (v, i) is admitted, since
   admission waits for every predecessor to be placed. *)
let ready_bound st v i =
  let rb = ref 0 in
  for e = st.pred_off.(v) to st.pred_off.(v + 1) - 1 do
    let pi = i - st.pred_dist.(e) in
    if pi >= 0 then begin
      let u = st.pred_src.(e) in
      let s = start_at st (pack_inst st ~node:u ~iter:pi) in
      if s >= 0 && s + st.lat.(u) > !rb then rb := s + st.lat.(u)
    end
  done;
  !rb

(* Only [solve] reads the frontier ({!final_frontier}); a bounded run
   skips it, ready bounds included.  The bound being fixed from
   admission on, removal recomputes it instead of storing it. *)
let frontier_add st v i =
  if st.limit = max_int then begin
    let rb = ready_bound st v i in
    if rb >= st.fr_cap then begin
      let cap = max (2 * st.fr_cap) (rb + 1) in
      st.fr_count <- grow_int st.fr_count ~old_cap:st.fr_cap ~cap 0;
      st.fr_cap <- cap
    end;
    let c = st.fr_count.(rb) in
    st.fr_count.(rb) <- c + 1;
    if c = 0 then st.fr_set <- Iset.add rb st.fr_set
  end

let frontier_remove st v i =
  if st.limit = max_int then begin
    let rb = ready_bound st v i in
    let c = st.fr_count.(rb) in
    assert (c > 0);
    st.fr_count.(rb) <- c - 1;
    if c = 1 then st.fr_set <- Iset.remove rb st.fr_set
  end

let admit st v i =
  ensure_inst st (pack_inst st ~node:v ~iter:i);
  heap_push st (pack_ready st ~iter:i ~prio:st.priority.(v) ~node:v);
  frontier_add st v i

let init_state ~graph ~machine ~limit ~order =
  check_preconditions graph;
  let n = Graph.node_count graph in
  let m = Graph.edge_count graph in
  let pred_off = Array.make (n + 1) 0 and succ_off = Array.make (n + 1) 0 in
  let pred_src = Array.make m 0 and pred_dist = Array.make m 0 in
  let pred_cost = Array.make m 0 in
  let succ_dst = Array.make m 0 and succ_dist = Array.make m 0 in
  let n_dist0_preds = Array.make n 0 in
  for v = 0 to n - 1 do
    let k = ref pred_off.(v) in
    List.iter
      (fun (e : Graph.edge) ->
        pred_src.(!k) <- e.src;
        pred_dist.(!k) <- e.distance;
        pred_cost.(!k) <- Config.edge_cost machine e;
        if e.distance = 0 then n_dist0_preds.(v) <- n_dist0_preds.(v) + 1;
        incr k)
      (Graph.preds graph v);
    pred_off.(v + 1) <- !k;
    let k = ref succ_off.(v) in
    List.iter
      (fun (e : Graph.edge) ->
        succ_dst.(!k) <- e.dst;
        succ_dist.(!k) <- e.distance;
        incr k)
      (Graph.succs graph v);
    succ_off.(v + 1) <- !k
  done;
  let lat = Array.init n (Graph.latency graph) in
  let max_latency = Array.fold_left max 1 lat in
  let priority = priorities graph order in
  let prio_base = Array.fold_left min 0 priority in
  let node_bits = bits_for (n - 1) in
  let prio_bits = bits_for (-prio_base) in
  let iter_cap = 1 lsl (62 - prio_bits - node_bits) in
  let p = machine.Config.processors in
  (* A bounded run's keys stay below [limit lsl node_bits], so its
     instance tables are sized once; the unbounded one grows them. *)
  let inst_cap = if limit = max_int then 1024 else max 1 (limit lsl node_bits) in
  let st =
    {
      graph;
      machine;
      limit;
      lat;
      pred_off;
      pred_src;
      pred_dist;
      pred_cost;
      succ_off;
      succ_dst;
      succ_dist;
      timelines = Array.init p (fun _ -> new_timeline ());
      inst_cap;
      start_of = Array.make inst_cap (-1);
      proc_of = Array.make inst_cap 0;
      counts = Array.make inst_cap max_int;
      heap = Array.make (max 16 (2 * n)) 0;
      heap_len = 0;
      fr_set = Iset.empty;
      fr_cap = 1024;
      fr_count = Array.make 1024 0;
      pops = 0;
      max_iter = 0;
      makespan = 0;
      max_latency;
      n_dist0_preds;
      priority;
      node_bits;
      prio_bits;
      prio_base;
      iter_cap;
      raw_max = Array.make p (-1);
      comm_max = Array.make p (-1);
    }
  in
  for v = 0 to n - 1 do
    if n_dist0_preds.(v) = 0 then admit st v 0
  done;
  st

(* Admission counting.  An instance (v, i) enters the ready set once
   every in-window predecessor instance is scheduled.  With distances
   in {0, 1} this keeps at most two instances of a node queued at a
   time, so materialisation stays finite — except for nodes with no
   predecessors at all, whose next instance is admitted explicitly when
   the previous one is popped (such nodes never occur in a Cyclic
   subset; [solve] rejects them, [schedule_iterations] handles them). *)
let n_preds st v = st.pred_off.(v + 1) - st.pred_off.(v)
let initial_count st v i = if i = 0 then st.n_dist0_preds.(v) else n_preds st v


let decrement st v i =
  if i < st.limit then begin
    let key = pack_inst st ~node:v ~iter:i in
    ensure_inst st key;
    let c0 = st.counts.(key) in
    let c = (if c0 = max_int then initial_count st v i else c0) - 1 in
    st.counts.(key) <- c;
    if c = 0 then admit st v i
  end

(* Pop the least ready instance and place it. *)
let schedule_one st =
  let ready_key = heap_pop st in
  let i = ready_iter st ready_key and v = ready_node st ready_key in
  let inst_key = pack_inst st ~node:v ~iter:i in
  frontier_remove st v i;
  let len = st.lat.(v) in
  let p = st.machine.Config.processors in
  (* One pass over the predecessors, bucketing their finish times by
     resident processor: [raw_max.(q)] is the latest finish among preds
     on q (what a consumer placed on q itself must wait for),
     [comm_max.(q)] the latest finish + communication cost (what any
     other processor must wait for).  The data-ready time on j is then
     max(raw_max.(j), max over q <> j of comm_max.(q)) — and that last
     term is the global top-1 of comm_max, or the top-2 when the top-1
     lives on j itself.  O(preds + p) instead of O(preds × p). *)
  let raw_max = st.raw_max and comm_max = st.comm_max in
  Array.fill raw_max 0 p (-1);
  Array.fill comm_max 0 p (-1);
  for e = st.pred_off.(v) to st.pred_off.(v + 1) - 1 do
    let pi = i - st.pred_dist.(e) in
    if pi >= 0 then begin
      let u = st.pred_src.(e) in
      let pk = pack_inst st ~node:u ~iter:pi in
      let s = start_at st pk in
      if s >= 0 then begin
        let q = st.proc_of.(pk) in
        let f = s + st.lat.(u) in
        if f > raw_max.(q) then raw_max.(q) <- f;
        let fc = f + st.pred_cost.(e) in
        if fc > comm_max.(q) then comm_max.(q) <- fc
      end
    end
  done;
  let top1 = ref (-1) and top1_proc = ref (-1) and top2 = ref (-1) in
  for q = 0 to p - 1 do
    let c = comm_max.(q) in
    if c > !top1 then begin
      top2 := !top1;
      top1 := c;
      top1_proc := q
    end
    else if c > !top2 then top2 := c
  done;
  (* the first minimum: a later processor wins only by starting earlier *)
  let best_t = ref max_int and best_j = ref (-1) in
  for j = 0 to p - 1 do
    let cross = if j = !top1_proc then !top2 else !top1 in
    let raw = raw_max.(j) in
    (* int comparisons written out: [Stdlib.max] is polymorphic *)
    let ready_j = if raw > cross then raw else cross in
    let ready_j = if ready_j > 0 then ready_j else 0 in
    let t = first_fit st.timelines.(j) ~ready:ready_j ~len in
    if t < !best_t then begin
      best_t := t;
      best_j := j
    end
  done;
  let t = !best_t and j = !best_j in
  st.start_of.(inst_key) <- t;
  st.proc_of.(inst_key) <- j;
  place st.timelines.(j) ~key:inst_key ~start:t ~len;
  if t + len > st.makespan then st.makespan <- t + len;
  st.pops <- st.pops + 1;
  if i + 1 > st.max_iter then st.max_iter <- i + 1;
  (* Release successors; keep predecessor-less nodes flowing. *)
  for e = st.succ_off.(v) to st.succ_off.(v + 1) - 1 do
    decrement st st.succ_dst.(e) (i + st.succ_dist.(e))
  done;
  if n_preds st v = 0 && i + 1 < st.limit then admit st v (i + 1)

(* Cycles strictly below the least ready-bound of any queued instance
   are final: every queued or future instance starts at or after that
   bound, so first-fit can no longer reach below it. *)
let final_frontier st =
  match Iset.min_elt_opt st.fr_set with None -> max_int | Some rb -> rb

let entries_overlapping st ~top ~bottom =
  let out = ref [] in
  Array.iter
    (fun tl ->
      let found = overlapping tl ~entry_of:(entry_of st) ~max_latency:st.max_latency ~top ~bottom in
      out := found @ !out)
    st.timelines;
  !out

(* The timeline arenas double as a start-cycle index: an entry starts
   at [c] exactly when the owner of its cell at [c] starts there.
   A range query is then O(p x range) array reads instead of a fold
   over every entry ever scheduled — the latter made pattern search
   quadratic in the detection cycle.  Walking cycles, then processors,
   yields the entries in ascending (start, proc) order, which is
   {!Schedule.entries}' order: intervals on one processor are disjoint,
   so no two entries share a start and a processor. *)
let entries_in_start_range st ~lo ~hi =
  let out = ref [] in
  for c = hi - 1 downto max lo 0 do
    for j = Array.length st.timelines - 1 downto 0 do
      let tl = st.timelines.(j) in
      if c < tl.cap && tl.fin.(c) > 0 then begin
        let key = tl.own.(c) in
        if st.start_of.(key) = c then out := entry_of st key :: !out
      end
    done
  done;
  !out

(* Does the slice starting at t2 equal the body slice [t1, t2) shifted
   by (height, d)?  Both slices must be final when called. *)
let period_repeats st ~t1 ~t2 ~d =
  let height = t2 - t1 in
  let body = entries_in_start_range st ~lo:t1 ~hi:t2 in
  let next = entries_in_start_range st ~lo:t2 ~hi:(t2 + height) in
  let shifted =
    List.map
      (fun (e : Schedule.entry) ->
        Schedule.
          {
            inst = { node = e.inst.node; iter = e.inst.iter + d };
            proc = e.proc;
            start = e.start + height;
          })
      body
  in
  shifted = next

let solve ?(max_iterations = 1024) ?(order = Lexicographic) ~graph ~machine () =
  for v = 0 to Graph.node_count graph - 1 do
    if Graph.preds graph v = [] then
      invalid_arg
        (Printf.sprintf
           "Cyclic_sched.solve: node %s has no predecessors, so this is not a Cyclic \
            subset; schedule it with Flow_sched"
           (Graph.name graph v))
  done;
  let st = init_state ~graph ~machine ~limit:max_int ~order in
  let window_height = machine.Config.comm_estimate + st.max_latency in
  let window_height = max 1 window_height in
  let seen : Config_window.t Config_window.Tbl.t = Config_window.Tbl.create 256 in
  let next_top = ref 0 in
  let checked = ref 0 in
  let rejected = ref 0 in
  let max_pops = max_iterations * Graph.node_count graph in
  let give_up () =
    raise
      (No_pattern
         (Printf.sprintf "no pattern within %d iterations (%d instances scheduled)"
            max_iterations st.pops))
  in
  (* Pump the scheduler until [target] cycles are final. *)
  let advance_until_final target =
    while final_frontier st < target do
      if st.pops >= max_pops then give_up ();
      (* infinite unrolling never drains the queue *)
      if st.heap_len = 0 then give_up ();
      schedule_one st
    done
  in
  let build_pattern ~t1 ~t2 ~d =
    let body = entries_in_start_range st ~lo:t1 ~hi:t2 in
    let prologue = entries_in_start_range st ~lo:0 ~hi:t1 in
    Pattern.
      { graph; machine; prologue; body; window_start = t1; height = t2 - t1; iter_shift = d }
  in
  let rec search () =
    if st.pops >= max_pops then give_up ();
    advance_until_final (!next_top + window_height);
    let top = !next_top in
    incr next_top;
    incr checked;
    match
      Config_window.extract ~graph ~entries_overlapping:(entries_overlapping st) ~top
        ~height:window_height
    with
    | None -> search ()
    | Some cfg -> begin
      match Config_window.Tbl.find_opt seen cfg.key with
      | None ->
        Config_window.Tbl.replace seen cfg.key cfg;
        search ()
      | Some earlier ->
        let d = Config_window.shift_between ~earlier ~later:cfg in
        if d < 1 then begin
          (* Cannot happen for equal keys (see Config_window), but be
             defensive: refresh the anchor and move on. *)
          Config_window.Tbl.replace seen cfg.key cfg;
          search ()
        end
        else begin
          let t1 = earlier.top and t2 = cfg.top in
          let verified =
            Trace.span ~cat:"compile" "compile.pattern_verify" (fun () ->
                advance_until_final (t2 + (t2 - t1) + window_height);
                period_repeats st ~t1 ~t2 ~d)
          in
          let pattern = if verified then Some (build_pattern ~t1 ~t2 ~d) else None in
          (* A node that runs ahead of the rest can repeat with the
             same configuration windows while its own instances fall
             outside the slice: the body must hold every node [d]
             times, or expanding it drops instances. *)
          match pattern with
          | Some pattern
            when Pattern.nodes_per_repetition pattern = Graph.node_count graph * d ->
            let stats =
              {
                pops = st.pops;
                iterations_touched = st.max_iter;
                configurations_checked = !checked;
                detection_cycle = t2;
                candidates_rejected = !rejected;
              }
            in
            { pattern; stats }
          | _ ->
            incr rejected;
            Config_window.Tbl.replace seen cfg.key cfg;
            search ()
        end
    end
  in
  search ()

(* The bounded run: every instance of iterations [0, iterations) is
   placed, and the placements are read back off the timelines in the
   order a schedule keeps, so freezing them sorts nothing. *)
let greedy_entries ?(order = Lexicographic) ~graph ~machine ~iterations () =
  if iterations <= 0 then invalid_arg "Cyclic_sched.schedule_iterations: iterations <= 0";
  Trace.span ~cat:"compile" "compile.schedule_iterations" @@ fun () ->
  let st = init_state ~graph ~machine ~limit:iterations ~order in
  while st.heap_len > 0 do
    schedule_one st
  done;
  (entries_in_start_range st ~lo:0 ~hi:st.makespan, st.makespan)

let schedule_iterations ?order ~graph ~machine ~iterations () =
  Schedule.make ~graph ~machine (fst (greedy_entries ?order ~graph ~machine ~iterations ()))

module For_tests = struct
  type nonrec timeline = timeline

  let empty_timeline = new_timeline
  let place = place
  let first_fit = first_fit
  let overlapping = overlapping
end
