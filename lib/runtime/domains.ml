type 'r outcome = Done of 'r | Torn_down | Failed of string

let run ?(watchdog = Watchdog.default) ~graph ~programs ~cancel_all ~worker () =
  let procs = Array.length programs in
  let progress = Array.init procs (fun _ -> Atomic.make 0) in
  let finished = Atomic.make 0 in
  let body j () =
    let tick () = Atomic.incr progress.(j) in
    let r =
      match worker ~proc:j ~tick with
      | v -> Done v
      | exception Channel.Cancelled -> Torn_down
      | exception e ->
        (* Fail fast: siblings blocked on this domain's messages must
           not wait out the watchdog. *)
        cancel_all ();
        Failed (Printexc.to_string e)
    in
    Atomic.incr finished;
    r
  in
  let doms = Array.init procs (fun j -> Domain.spawn (body j)) in
  let verdict =
    Watchdog.guard ~config:watchdog
      ~finished:(fun () -> Atomic.get finished = procs)
      ~progress:(fun () -> Array.fold_left (fun acc c -> acc + Atomic.get c) 0 progress)
      ~cancel:cancel_all
      ~snapshots:(fun () ->
        Watchdog.snapshots ~graph ~programs ~retired:(fun j -> Atomic.get progress.(j)))
      ()
  in
  let results = Array.map Domain.join doms in
  Array.iteri
    (fun j r ->
      match r with
      | Failed msg -> failwith (Printf.sprintf "runtime: domain %d failed: %s" j msg)
      | Done _ | Torn_down -> ())
    results;
  (match verdict with
  | `Stalled stall -> raise (Watchdog.Runtime_deadlock stall)
  | `Finished -> ());
  Array.map
    (function
      | Done v -> v
      | Torn_down | Failed _ -> failwith "runtime: domain torn down without a stall")
    results
