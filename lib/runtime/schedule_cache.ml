module Graph = Mimd_ddg.Graph
module Config = Mimd_machine.Config
module Full_sched = Mimd_core.Full_sched

(* Intrusive doubly-linked recency list: [head] is most recently used,
   [tail] least.  Every hashtable entry owns exactly one node. *)
type node = {
  key : string;
  value : Full_sched.t;
  mutable prev : node option;  (* towards the head (more recent) *)
  mutable next : node option;  (* towards the tail (less recent) *)
}

type t = {
  capacity : int;
  table : (string, node) Hashtbl.t;
  mutable head : node option;
  mutable tail : node option;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = { hits : int; misses : int; entries : int; evictions : int }

let create ?(capacity = 128) () =
  if capacity < 1 then invalid_arg "Schedule_cache.create: capacity < 1";
  {
    capacity;
    table = Hashtbl.create 64;
    head = None;
    tail = None;
    mutex = Mutex.create ();
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let capacity t = t.capacity

(* List surgery; all callers hold the mutex. *)

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.prev <- None;
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let kind_tag = function
  | Graph.Generic -> 'g'
  | Graph.Add -> 'a'
  | Graph.Mul -> 'm'
  | Graph.Div -> 'd'
  | Graph.Load -> 'l'
  | Graph.Store -> 's'
  | Graph.Copy -> 'c'
  | Graph.Compare -> 'e'
  | Graph.Predicate -> 'p'

let strategy_tag = function
  | Full_sched.Separate -> 'S'
  | Full_sched.Folded -> 'F'
  | Full_sched.Auto -> 'A'

(* Serialize everything the scheduler reads of the graph: nodes
   (name, latency, kind) and edges (endpoints, distance, cost
   override).  These bytes are the shared prefix of both keys below. *)
let add_graph b graph =
  Buffer.add_string b (string_of_int (Graph.node_count graph));
  List.iter
    (fun (n : Graph.node) ->
      Buffer.add_string b
        (Printf.sprintf "|%s~%d~%c" n.Graph.name n.Graph.latency (kind_tag n.Graph.kind)))
    (Graph.nodes graph);
  (* Edge order is a construction artifact, not semantics: sort. *)
  List.iter
    (fun (e : Graph.edge) ->
      Buffer.add_string b
        (Printf.sprintf "|%d>%d@%d$%s" e.Graph.src e.Graph.dst e.Graph.distance
           (match e.Graph.cost with None -> "-" | Some c -> string_of_int c)))
    (List.sort compare (Graph.edges graph))

(* The graph-only prefix of the cache key: everything the
   machine-independent pipeline stages (unwind + classify) read.  Two
   compiles of the same loop at different p / k / trip count share
   this prefix — which is exactly what lets [Mimd_tune.Incr] reuse the
   prepared DDG and classification across them. *)
let graph_fingerprint ~graph () =
  let b = Buffer.create 512 in
  add_graph b graph;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The key ends in [Full_sched]'s default strategy knobs: the service
   never sets them, and a change of default must change every key. *)
let fingerprint ~graph ~machine ~iterations () =
  let b = Buffer.create 512 in
  add_graph b graph;
  Buffer.add_string b
    (Printf.sprintf "|p%d|k%d|n%d|%c|f%h|m%d" machine.Config.processors
       machine.Config.comm_estimate iterations
       (strategy_tag Full_sched.default_strategy)
       Full_sched.default_fold_tolerance Full_sched.default_max_iterations);
  Digest.to_hex (Digest.string (Buffer.contents b))

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t ~key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some n ->
        t.hits <- t.hits + 1;
        (* LRU: a hit promotes the entry to most-recently-used. *)
        unlink t n;
        push_front t n;
        Some n.value
      | None ->
        t.misses <- t.misses + 1;
        None)

let add t ~key value =
  with_lock t (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        if Hashtbl.length t.table >= t.capacity then begin
          match t.tail with
          | Some lru ->
            unlink t lru;
            Hashtbl.remove t.table lru.key;
            t.evictions <- t.evictions + 1
          | None -> ()
        end;
        let n = { key; value; prev = None; next = None } in
        push_front t n;
        Hashtbl.replace t.table key n
      end)

let stats t =
  with_lock t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        entries = Hashtbl.length t.table;
        evictions = t.evictions;
      })

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.table;
      t.head <- None;
      t.tail <- None;
      t.hits <- 0;
      t.misses <- 0;
      t.evictions <- 0)
