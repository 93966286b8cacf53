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
   valid intervals finish at >= 1) and the entry that owns it.  Slot
   probing reads and jumps over machine-word cells with no allocation,
   where the previous balanced-map timeline paid a search tree walk
   plus a Seq materialisation per probe.  [next] is a skip pointer per
   busy cell: every cell in [c, next.(c)) is busy, so following it from
   any cell reaches the first free cell at or after it; path
   compression keeps the chains short.  Cells only ever go from free to
   busy, so a pointer never skips a free cell.  The arrays grow by
   doubling; reads beyond the high-water mark mean "free". *)
type timeline = {
  mutable cap : int;
  mutable fin : int array; (* cycle -> finish of covering interval, 0 = free *)
  mutable ent : Schedule.entry array; (* meaningful where fin > 0 *)
  mutable next : int array; (* meaningful where fin > 0 *)
}

let dummy_entry = Schedule.{ inst = { node = 0; iter = 0 }; proc = 0; start = -1 }
let new_timeline () = { cap = 0; fin = [||]; ent = [||]; next = [||] }

let ensure_capacity tl n =
  if n > tl.cap then begin
    let cap = max 1024 (max n (2 * tl.cap)) in
    let fin = Array.make cap 0 and ent = Array.make cap dummy_entry in
    let next = Array.make cap 0 in
    Array.blit tl.fin 0 fin 0 tl.cap;
    Array.blit tl.ent 0 ent 0 tl.cap;
    Array.blit tl.next 0 next 0 tl.cap;
    tl.cap <- cap;
    tl.fin <- fin;
    tl.ent <- ent;
    tl.next <- next
  end

let place tl (e : Schedule.entry) ~len =
  let f = e.start + len in
  ensure_capacity tl f;
  for c = e.start to f - 1 do
    tl.fin.(c) <- f;
    tl.ent.(c) <- e;
    tl.next.(c) <- f
  done

let is_free tl c = c >= tl.cap || tl.fin.(c) = 0

(* Smallest free cell >= c; every busy cell on the way is pointed
   straight at it. *)
let next_free tl c =
  let rec root c = if is_free tl c then c else root tl.next.(c) in
  let r = root c in
  let rec compress c =
    if c < r then begin
      let n = tl.next.(c) in
      tl.next.(c) <- r;
      compress n
    end
  in
  compress c;
  r

let interval_finish g (e : Schedule.entry) = e.start + Graph.latency g e.inst.node

(* Earliest start >= ready of a free [len]-cycle window: jump to the
   first free cell, then scan the rest of the window; a busy cell in
   it rules out every start up to its interval's finish, so retry from
   there. *)
let first_fit _g (tl : timeline) ~ready ~len =
  let rec probe t =
    let t = next_free tl t in
    let rec scan c =
      if c >= t + len then t else if is_free tl c then scan (c + 1) else probe tl.fin.(c)
    in
    scan (t + 1)
  in
  probe ready

(* Entries whose execution interval intersects [top, bottom] on one
   processor: walk backward from [bottom], hopping interval starts,
   while starts can still reach the window. *)
let overlapping _g (tl : timeline) ~max_latency ~top ~bottom =
  let out = ref [] in
  let c = ref (min bottom (tl.cap - 1)) in
  let stop = ref false in
  while (not !stop) && !c >= 0 do
    let f = tl.fin.(!c) in
    if f = 0 then decr c
    else begin
      let e = tl.ent.(!c) in
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
   (placement, admission count, ready bound) is a directly-indexed
   array over that key space, grown by doubling — a machine-word read
   or write per access, no hashing.  The ready queue is a plain
   [Iset.t] of ints packing (iter, normalized priority, node) so that
   integer order coincides with the tuple's lexicographic order.  The
   frontier only ever answers "minimum ready-bound", so it is kept as
   a multiset of rb values: an [Iset.t] of the distinct bounds plus a
   per-bound multiplicity array. *)
type state = {
  graph : Graph.t;
  csr : Graph.csr;
  machine : Config.t;
  trip : int option; (* Some n: schedule iterations < n only *)
  timelines : timeline array;
  mutable inst_cap : int; (* capacity of the three instance arrays *)
  mutable scheduled : Schedule.entry array; (* start = -1 when absent *)
  mutable counts : int array; (* max_int = never decremented *)
  mutable rb_of : int array; (* -1 when absent *)
  mutable entries_acc : Schedule.entry list; (* every placement, newest first *)
  mutable ready : Iset.t; (* packed (iter, prio, node) *)
  mutable fr_set : Iset.t; (* distinct ready-bounds in the frontier *)
  mutable fr_cap : int;
  mutable fr_count : int array; (* rb -> multiplicity *)
  mutable pops : int;
  mutable max_iter : int;
  max_latency : int;
  n_dist0_preds : int array;
  n_all_preds : int array;
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

let ensure_inst st key =
  if key >= st.inst_cap then begin
    let cap = max (2 * st.inst_cap) (key + 1) in
    let scheduled = Array.make cap dummy_entry in
    let counts = Array.make cap max_int in
    let rb_of = Array.make cap (-1) in
    Array.blit st.scheduled 0 scheduled 0 st.inst_cap;
    Array.blit st.counts 0 counts 0 st.inst_cap;
    Array.blit st.rb_of 0 rb_of 0 st.inst_cap;
    st.inst_cap <- cap;
    st.scheduled <- scheduled;
    st.counts <- counts;
    st.rb_of <- rb_of
  end

let scheduled_entry st key =
  if key < st.inst_cap && st.scheduled.(key).start >= 0 then Some st.scheduled.(key)
  else None

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
    let c = Graph.csr graph in
    let height = Array.make (Graph.node_count graph) 0 in
    List.iter
      (fun v ->
        let tail =
          Graph.fold_succs c v
            (fun acc (e : Graph.edge) ->
              if e.distance = 0 then max acc height.(e.dst) else acc)
            0
        in
        height.(v) <- Graph.latency graph v + tail)
      (List.rev order);
    Array.map (fun h -> -h) height

let bits_for m =
  (* smallest b >= 1 with m < 2^b *)
  let rec go b = if m < 1 lsl b then b else go (b + 1) in
  go 1

let pack_inst st ~node ~iter = (iter lsl st.node_bits) lor node

let pack_ready st ~iter ~prio ~node =
  assert (iter < st.iter_cap);
  ((iter lsl st.prio_bits) lor (prio - st.prio_base)) lsl st.node_bits lor node

let ready_iter st key = key lsr (st.prio_bits + st.node_bits)
let ready_node st key = key land ((1 lsl st.node_bits) - 1)

(* Only [solve] reads the frontier ({!final_frontier}); a bounded run
   ([trip = Some n]) skips the two [Iset] updates per instance. *)
let frontier_add st rb =
  match st.trip with
  | Some _ -> ()
  | None ->
    if rb >= st.fr_cap then begin
      let cap = max (2 * st.fr_cap) (rb + 1) in
      let fr_count = Array.make cap 0 in
      Array.blit st.fr_count 0 fr_count 0 st.fr_cap;
      st.fr_cap <- cap;
      st.fr_count <- fr_count
    end;
    let c = st.fr_count.(rb) in
    st.fr_count.(rb) <- c + 1;
    if c = 0 then st.fr_set <- Iset.add rb st.fr_set

let frontier_remove st rb =
  match st.trip with
  | Some _ -> ()
  | None ->
    let c = st.fr_count.(rb) in
    assert (c > 0);
    st.fr_count.(rb) <- c - 1;
    if c = 1 then st.fr_set <- Iset.remove rb st.fr_set

let init_state ~graph ~machine ~trip ~order =
  check_preconditions graph;
  let n = Graph.node_count graph in
  let csr = Graph.csr graph in
  let n_dist0_preds = Array.make n 0 in
  let n_all_preds = Array.make n 0 in
  for v = 0 to n - 1 do
    Graph.iter_preds csr v (fun (e : Graph.edge) ->
        n_all_preds.(v) <- n_all_preds.(v) + 1;
        if e.distance = 0 then n_dist0_preds.(v) <- n_dist0_preds.(v) + 1)
  done;
  let max_latency = List.fold_left (fun acc (nd : Graph.node) -> max acc nd.latency) 1 (Graph.nodes graph) in
  let priority = priorities graph order in
  let prio_base = Array.fold_left min 0 priority in
  let node_bits = bits_for (n - 1) in
  let prio_bits = bits_for (-prio_base) in
  let iter_cap = 1 lsl (62 - prio_bits - node_bits) in
  let p = machine.Config.processors in
  let st =
    {
      graph;
      csr;
      machine;
      trip;
      timelines = Array.init p (fun _ -> new_timeline ());
      inst_cap = 1024;
      scheduled = Array.make 1024 dummy_entry;
      counts = Array.make 1024 max_int;
      rb_of = Array.make 1024 (-1);
      entries_acc = [];
      ready = Iset.empty;
      fr_set = Iset.empty;
      fr_cap = 1024;
      fr_count = Array.make 1024 0;
      pops = 0;
      max_iter = 0;
      max_latency;
      n_dist0_preds;
      n_all_preds;
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
    if n_dist0_preds.(v) = 0 then begin
      st.ready <- Iset.add (pack_ready st ~iter:0 ~prio:st.priority.(v) ~node:v) st.ready;
      frontier_add st 0;
      let key = pack_inst st ~node:v ~iter:0 in
      ensure_inst st key;
      st.rb_of.(key) <- 0
    end
  done;
  st

(* Admission counting.  An instance (v, i) enters the ready set once
   every in-window predecessor instance is scheduled.  With distances
   in {0, 1} this keeps at most two instances of a node queued at a
   time, so materialisation stays finite — except for nodes with no
   predecessors at all, whose next instance is admitted explicitly when
   the previous one is popped (such nodes never occur in a Cyclic
   subset; [solve] rejects them, [schedule_iterations] handles them). *)
let initial_count st (v, i) =
  if i = 0 then st.n_dist0_preds.(v) else st.n_all_preds.(v)

let ready_bound st (v, i) =
  Graph.fold_preds st.csr v
    (fun acc (e : Graph.edge) ->
      let pi = i - e.distance in
      if pi < 0 then acc
      else
        match scheduled_entry st (pack_inst st ~node:e.src ~iter:pi) with
        | Some pe -> max acc (interval_finish st.graph pe)
        | None -> acc (* unreachable: admission guarantees presence *))
    0

let admit st (v, i) =
  let rb = ready_bound st (v, i) in
  let key = pack_inst st ~node:v ~iter:i in
  ensure_inst st key;
  st.rb_of.(key) <- rb;
  st.ready <- Iset.add (pack_ready st ~iter:i ~prio:st.priority.(v) ~node:v) st.ready;
  frontier_add st rb

let decrement st (v, i) =
  let in_trip = match st.trip with None -> true | Some n -> i < n in
  if in_trip then begin
    let key = pack_inst st ~node:v ~iter:i in
    ensure_inst st key;
    let c0 = st.counts.(key) in
    let c = (if c0 = max_int then initial_count st (v, i) else c0) - 1 in
    st.counts.(key) <- c;
    if c = 0 then admit st (v, i)
  end

let schedule_one st ready_key =
  let i = ready_iter st ready_key and v = ready_node st ready_key in
  st.ready <- Iset.remove ready_key st.ready;
  let inst_key = pack_inst st ~node:v ~iter:i in
  let rb = st.rb_of.(inst_key) in
  (* every admitted instance records its bound in [admit]/[init_state] *)
  assert (rb >= 0);
  frontier_remove st rb;
  st.rb_of.(inst_key) <- -1;
  let len = Graph.latency st.graph v in
  let p = st.machine.Config.processors in
  (* One pass over the predecessors, bucketing their finish times by
     resident processor: [raw_max.(q)] is the latest finish among preds
     on q (what a consumer placed on q itself must wait for),
     [comm_max.(q)] the latest finish + communication cost (what any
     other processor must wait for).  The data-ready time on j is then
     max(raw_max.(j), max over q <> j of comm_max.(q)) — and that last
     term is the global top-1 of comm_max, or the top-2 when the top-1
     lives on j itself.  O(preds + p) instead of O(preds × p). *)
  let best = ref None in
  Array.fill st.raw_max 0 p (-1);
  Array.fill st.comm_max 0 p (-1);
  Graph.iter_preds st.csr v (fun (e : Graph.edge) ->
      let pi = i - e.distance in
      if pi >= 0 then
        match scheduled_entry st (pack_inst st ~node:e.src ~iter:pi) with
        | Some pe ->
          let f = interval_finish st.graph pe in
          if f > st.raw_max.(pe.proc) then st.raw_max.(pe.proc) <- f;
          let fc = f + Config.edge_cost st.machine e in
          if fc > st.comm_max.(pe.proc) then st.comm_max.(pe.proc) <- fc
        | None -> ());
  let top1 = ref (-1) and top1_proc = ref (-1) and top2 = ref (-1) in
  for q = 0 to p - 1 do
    let c = st.comm_max.(q) in
    if c > !top1 then begin
      top2 := !top1;
      top1 := c;
      top1_proc := q
    end
    else if c > !top2 then top2 := c
  done;
  for j = 0 to p - 1 do
    let cross = if j = !top1_proc then !top2 else !top1 in
    let ready_j = max 0 (max st.raw_max.(j) cross) in
    let t = first_fit st.graph st.timelines.(j) ~ready:ready_j ~len in
    match !best with
    | Some (t0, _) when t0 <= t -> ()
    | _ -> best := Some (t, j)
  done;
  let t, j = match !best with Some b -> b | None -> assert false in
  let entry = Schedule.{ inst = { node = v; iter = i }; proc = j; start = t } in
  st.scheduled.(inst_key) <- entry;
  st.entries_acc <- entry :: st.entries_acc;
  place st.timelines.(j) entry ~len;
  st.pops <- st.pops + 1;
  if i + 1 > st.max_iter then st.max_iter <- i + 1;
  (* Release successors; keep predecessor-less nodes flowing. *)
  Graph.iter_succs st.csr v (fun (e : Graph.edge) -> decrement st (e.dst, i + e.distance));
  if st.n_all_preds.(v) = 0 then begin
    let in_trip = match st.trip with None -> true | Some n -> i + 1 < n in
    if in_trip then admit st (v, i + 1)
  end;
  entry

(* Cycles strictly below the least ready-bound of any queued instance
   are final: every queued or future instance starts at or after that
   bound, so first-fit can no longer reach below it. *)
let final_frontier st =
  match Iset.min_elt_opt st.fr_set with None -> max_int | Some rb -> rb

let all_entries st = st.entries_acc

let entries_overlapping st ~top ~bottom =
  let out = ref [] in
  Array.iter
    (fun tl ->
      out := overlapping st.graph tl ~max_latency:st.max_latency ~top ~bottom @ !out)
    st.timelines;
  !out

(* The timeline arenas double as a start-cycle index: an entry starts
   at [c] exactly when its cell at [c] records itself with that start.
   A range query is then O(p x range) array reads instead of a fold
   over every entry ever scheduled — the latter made pattern search
   quadratic in the detection cycle. *)
let entries_in_start_range st ~lo ~hi =
  let out = ref [] in
  Array.iter
    (fun tl ->
      let hi = min hi tl.cap in
      for c = max lo 0 to hi - 1 do
        if tl.fin.(c) > 0 then begin
          let e = tl.ent.(c) in
          if e.start = c then out := e :: !out
        end
      done)
    st.timelines;
  !out

let sort_entries l =
  List.sort
    (fun (a : Schedule.entry) (b : Schedule.entry) ->
      compare (a.start, a.proc, a.inst.iter, a.inst.node) (b.start, b.proc, b.inst.iter, b.inst.node))
    l

(* Does the slice starting at t2 equal the body slice [t1, t2) shifted
   by (height, d)?  Both slices must be final when called. *)
let period_repeats st ~t1 ~t2 ~d =
  let height = t2 - t1 in
  let body = sort_entries (entries_in_start_range st ~lo:t1 ~hi:t2) in
  let next = sort_entries (entries_in_start_range st ~lo:t2 ~hi:(t2 + height)) in
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

let solve ?(max_iterations = 1024) ?(verify = true) ?(order = Lexicographic) ~graph ~machine () =
  let csr0 = Graph.csr graph in
  for v = 0 to Graph.node_count graph - 1 do
    if Graph.in_degree csr0 v = 0 then
      invalid_arg
        (Printf.sprintf
           "Cyclic_sched.solve: node %s has no predecessors, so this is not a Cyclic \
            subset; schedule it with Flow_sched"
           (Graph.name graph v))
  done;
  let st = init_state ~graph ~machine ~trip:None ~order in
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
      match Iset.min_elt_opt st.ready with
      | None -> give_up () (* infinite unrolling never drains the queue *)
      | Some key -> ignore (schedule_one st key)
    done
  in
  let build_pattern ~t1 ~t2 ~d =
    let body = sort_entries (entries_in_start_range st ~lo:t1 ~hi:t2) in
    let prologue = sort_entries (entries_in_start_range st ~lo:0 ~hi:t1) in
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
          let ok =
            if not verify then true
            else
              Trace.span ~cat:"compile" "compile.pattern_verify" (fun () ->
                  advance_until_final (t2 + (t2 - t1) + window_height);
                  period_repeats st ~t1 ~t2 ~d)
          in
          if ok then begin
            let pattern = build_pattern ~t1 ~t2 ~d in
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
          end
          else begin
            incr rejected;
            Config_window.Tbl.replace seen cfg.key cfg;
            search ()
          end
        end
    end
  in
  search ()

let schedule_iterations ?(order = Lexicographic) ~graph ~machine ~iterations () =
  if iterations <= 0 then invalid_arg "Cyclic_sched.schedule_iterations: iterations <= 0";
  Trace.span ~cat:"compile" "compile.schedule_iterations" @@ fun () ->
  let st = init_state ~graph ~machine ~trip:(Some iterations) ~order in
  let rec drain () =
    match Iset.min_elt_opt st.ready with
    | None -> ()
    | Some key ->
      ignore (schedule_one st key);
      drain ()
  in
  drain ();
  Schedule.make ~graph ~machine (all_entries st)

module For_tests = struct
  type nonrec timeline = timeline

  let empty_timeline = new_timeline

  let add_entry g tl (e : Schedule.entry) =
    place tl e ~len:(Graph.latency g e.inst.node);
    tl

  let first_fit = first_fit
  let overlapping = overlapping
end
