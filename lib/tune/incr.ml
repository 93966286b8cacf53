module Full_sched = Mimd_core.Full_sched
module Cache = Mimd_runtime.Schedule_cache

type outcome = Cold | Incremental

let outcome_name = function Cold -> "cold" | Incremental -> "incremental"

(* Bounded FIFO map of graph fingerprint -> prepared pipeline prefix.
   FIFO (not LRU) keeps this trivially cheap: prepared values are
   small (an unwound graph + classification), capacity is generous,
   and the win we are after — a k-only recompile of a loop the
   service just compiled — hits the newest entries anyway. *)
type t = {
  capacity : int;
  table : (string, Full_sched.prepared) Hashtbl.t;
  order : string Queue.t;
  mutex : Mutex.t;
  mutable hits : int;
  mutable misses : int;
}

type stats = { hits : int; misses : int; entries : int }

let create ?(capacity = 256) () =
  if capacity < 1 then invalid_arg "Incr.create: capacity < 1";
  {
    capacity;
    table = Hashtbl.create 64;
    order = Queue.create ();
    mutex = Mutex.create ();
    hits = 0;
    misses = 0;
  }

let global = create ()

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let find t key =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.table key with
      | Some p ->
        t.hits <- t.hits + 1;
        Some p
      | None ->
        t.misses <- t.misses + 1;
        None)

let add t key prepared =
  with_lock t (fun () ->
      if not (Hashtbl.mem t.table key) then begin
        if Hashtbl.length t.table >= t.capacity then begin
          match Queue.take_opt t.order with
          | Some oldest -> Hashtbl.remove t.table oldest
          | None -> ()
        end;
        Hashtbl.replace t.table key prepared;
        Queue.add key t.order
      end)

let compile t ~graph ~machine ~iterations () =
  let key = Cache.graph_fingerprint ~graph () in
  let prepared, outcome =
    match find t key with
    | Some p -> (p, Incremental)
    | None ->
      (* Compute outside the lock; a racing miss prepares twice and
         stores an equivalent value, same policy as Schedule_cache. *)
      let p = Full_sched.prepare ~graph () in
      add t key p;
      (p, Cold)
  in
  (Full_sched.finish ~prepared ~machine ~iterations (), outcome)

let stats t =
  with_lock t (fun () ->
      { hits = t.hits; misses = t.misses; entries = Hashtbl.length t.table })

let clear t =
  with_lock t (fun () ->
      Hashtbl.reset t.table;
      Queue.clear t.order;
      t.hits <- 0;
      t.misses <- 0)
