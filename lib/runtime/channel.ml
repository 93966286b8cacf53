exception Cancelled

type 'a t = {
  cap : int;
  buf : 'a Queue.t;
  mutex : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  mutable poisoned : bool;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Channel.create: capacity < 1";
  {
    cap = capacity;
    buf = Queue.create ();
    mutex = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    poisoned = false;
  }

let with_lock t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

let send t v =
  with_lock t (fun () ->
      while Queue.length t.buf >= t.cap && not t.poisoned do
        Condition.wait t.not_full t.mutex
      done;
      if t.poisoned then raise Cancelled;
      Queue.push v t.buf;
      Condition.signal t.not_empty)

let recv t =
  with_lock t (fun () ->
      while Queue.is_empty t.buf && not t.poisoned do
        Condition.wait t.not_empty t.mutex
      done;
      if t.poisoned then raise Cancelled;
      let v = Queue.pop t.buf in
      Condition.signal t.not_full;
      v)

let cancel t =
  with_lock t (fun () ->
      t.poisoned <- true;
      Condition.broadcast t.not_empty;
      Condition.broadcast t.not_full)
