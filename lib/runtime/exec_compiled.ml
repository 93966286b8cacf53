module Program = Mimd_codegen.Program
module Interp = Mimd_loop_ir.Interp
module Trace = Mimd_obs.Trace
module Clock = Mimd_obs.Clock

(* The per-processor evaluator: a tight match over a cinstr array with
   int fields.  All state is preallocated —
   the unboxed slot store, the evaluation stack, the computed-value
   array — so the compute path allocates nothing per instruction; only
   outbound message payloads are built on demand (they cross domains
   and must be fresh values either way).  The computed-value array is
   the result: [vals.(k)] is the value of [computes.(k)]. *)
let worker_with ~init ~scalars ~tick ~(lowered : Lower.t) ~proc:j
    ~(chans : Value_run.chans) () =
  let pc = lowered.Lower.procs.(j) in
  (* NaN, not 0: a slot read before any write (impossible in a lowered
     program, guaranteed by the planted stale-slot fault) poisons the
     value instead of silently looking plausible. *)
  let slots = Array.make pc.Lower.slot_count nan in
  Array.iter
    (fun (array, idx, slot) -> slots.(slot) <- init array idx)
    pc.Lower.prefill;
  let scal = Array.map scalars lowered.Lower.scalar_names in
  let stack = Array.make pc.Lower.stack_need 0.0 in
  let vals = Array.make (Array.length pc.Lower.computes) 0.0 in
  let ci = ref 0 in
  let sent = ref 0 in
  let traced = Trace.is_enabled () in
  if traced then Trace.set_thread_name (Printf.sprintf "PE%d" j);
  let eval (code : Lower.code) (args : int array) =
    let ops = code.Lower.ops in
    let sp = ref 0 in
    for k = 0 to Array.length ops - 1 do
      match ops.(k) with
      | Lower.Load a ->
        stack.(!sp) <- slots.(args.(a));
        incr sp
      | Lower.Const c ->
        stack.(!sp) <- c;
        incr sp
      | Lower.Scalar ix ->
        stack.(!sp) <- scal.(ix);
        incr sp
      | Lower.Add ->
        stack.(!sp - 2) <- stack.(!sp - 2) +. stack.(!sp - 1);
        decr sp
      | Lower.Sub ->
        stack.(!sp - 2) <- stack.(!sp - 2) -. stack.(!sp - 1);
        decr sp
      | Lower.Mul ->
        stack.(!sp - 2) <- stack.(!sp - 2) *. stack.(!sp - 1);
        decr sp
      | Lower.Div ->
        stack.(!sp - 2) <- stack.(!sp - 2) /. stack.(!sp - 1);
        decr sp
      | Lower.Neg -> stack.(!sp - 1) <- -.stack.(!sp - 1)
      | Lower.Select ->
        stack.(!sp - 3) <-
          (if stack.(!sp - 3) > 0.0 then stack.(!sp - 2) else stack.(!sp - 1));
        sp := !sp - 2
    done;
    stack.(0)
  in
  (* Land one pack frame: arrivals usually match [insts] positionally
     (both sides come from the same Comm_opt rewrite); fall back to a
     linear search, and ignore instances this PE has no slot for — it
     can never read them. *)
  let land_pack (insts : (int * int) array) (dst_slots : int array) pairs =
    let n = Array.length pairs in
    let m = Array.length insts in
    for i = 0 to n - 1 do
      let inst, v = pairs.(i) in
      if i < m && insts.(i) = inst then slots.(dst_slots.(i)) <- v
      else begin
        let k = ref 0 in
        while !k < m && insts.(!k) <> inst do
          incr k
        done;
        if !k < m then slots.(dst_slots.(!k)) <- v
      end
    done
  in
  let exec (ins : Lower.cinstr) =
    match ins with
    | Lower.CCompute { code; args; dst; _ } ->
      let v = eval code args in
      slots.(dst) <- v;
      vals.(!ci) <- v;
      incr ci
    | Lower.CSend { dst; tag; src_slot } ->
      chans.Value_run.send ~dst ~tag (Value_run.Single slots.(src_slot));
      incr sent
    | Lower.CSend_pack { dst; tag; insts; src_slots } ->
      let pairs =
        Array.init (Array.length insts) (fun i ->
            (insts.(i), slots.(src_slots.(i))))
      in
      chans.Value_run.send ~dst ~tag (Value_run.Pack pairs);
      incr sent
    | Lower.CRecv { src; tag; dst_slot } -> (
      match chans.Value_run.recv ~src ~tag with
      | Value_run.Single v -> slots.(dst_slot) <- v
      | Value_run.Pack pairs -> land_pack [| tag |] [| dst_slot |] pairs)
    | Lower.CRecv_pack { src; tag; insts; dst_slots } -> (
      match chans.Value_run.recv ~src ~tag with
      | Value_run.Single v -> slots.(dst_slots.(0)) <- v
      | Value_run.Pack pairs -> land_pack insts dst_slots pairs)
  in
  Array.iter
    (fun ins ->
      (if traced then begin
         let name, args =
           match ins with
           | Lower.CCompute { node; iter; _ } ->
             ( "run.compute",
               [ ("node", string_of_int node); ("iter", string_of_int iter) ] )
           | Lower.CSend { tag = node, iter; dst; _ } ->
             ( "run.send",
               [
                 ("node", string_of_int node);
                 ("iter", string_of_int iter);
                 ("pe", string_of_int j);
                 ("dst", string_of_int dst);
               ] )
           | Lower.CRecv { tag = node, iter; src; _ } ->
             ( "run.recv",
               [
                 ("node", string_of_int node);
                 ("iter", string_of_int iter);
                 ("pe", string_of_int j);
                 ("src", string_of_int src);
               ] )
           | Lower.CSend_pack { insts; dst; _ } ->
             ( "run.send",
               [
                 ("tags", string_of_int (Array.length insts));
                 ("pe", string_of_int j);
                 ("dst", string_of_int dst);
               ] )
           | Lower.CRecv_pack { insts; src; _ } ->
             ( "run.recv",
               [
                 ("tags", string_of_int (Array.length insts));
                 ("pe", string_of_int j);
                 ("src", string_of_int src);
               ] )
         in
         Trace.span ~cat:"run" ~args name (fun () -> exec ins)
       end
       else exec ins);
      tick ())
    pc.Lower.instrs;
  (vals, !sent)

let worker ?(init = Interp.init) ?(scalars = Interp.default_scalar)
    ?(tick = ignore) ~lowered ~proc ~chans () =
  worker_with ~init ~scalars ~tick ~lowered ~proc ~chans ()

let run ?(init = Interp.init) ?(scalars = Interp.default_scalar) ?watchdog
    ?(channel_capacity = Value_run.default_channel_capacity) ?lowered ~loop
    ~(program : Program.t) () =
  let lowered =
    match lowered with Some l -> l | None -> Lower.run ~loop ~program ()
  in
  if lowered.Lower.processors <> program.processors then
    invalid_arg "Exec_compiled.run: lowered form is for another program";
  let p = program.processors in
  (* [links.(src).(dst)]: one bounded channel per ordered pair, all
     built up front so a cancel reaches every potential waiter. *)
  let links =
    Array.init p (fun _ -> Array.init p (fun _ -> Channel.create ~capacity:channel_capacity))
  in
  let t0 = Clock.now_ns () in
  let worker ~proc:j ~tick =
    let chans =
      Value_run.of_links ~procs:p
        ~send:(fun ~dst ~tag v ->
          if dst = j then invalid_arg "Exec_compiled.run: self message";
          Channel.send links.(j).(dst) (tag, v))
        ~next:(fun ~src -> Channel.recv links.(src).(j))
    in
    let vals, sent = worker_with ~init ~scalars ~tick ~lowered ~proc:j ~chans () in
    (vals, sent, float_of_int (Clock.now_ns () - t0))
  in
  let results =
    Domains.run ?watchdog ~graph:program.graph ~programs:program.programs
      ~cancel_all:(fun () -> Array.iter (Array.iter Channel.cancel) links)
      ~worker ()
  in
  Value_run.finalize ~loop ~program ~computes:(Lower.computes lowered) ~results

(* Performed inside a PE's fiber by a pull from an empty link: the run
   loop parks the continuation on the link from that source. *)
type _ Effect.t += Await : int -> unit Effect.t

let run_inline ?lowered ~loop ~(program : Program.t) () =
  let lowered =
    match lowered with Some l -> l | None -> Lower.run ~loop ~program ()
  in
  if lowered.Lower.processors <> program.processors then
    invalid_arg "Exec_compiled.run_inline: lowered form is for another program";
  let p = program.processors in
  (* [links.(src).(dst)]: one unbounded FIFO per ordered pair, so a
     send never blocks; [parked.(src).(dst)] is [dst] waiting on it. *)
  let links = Array.init p (fun _ -> Array.init p (fun _ -> Queue.create ())) in
  let parked = Array.init p (fun _ -> Array.make p None) in
  let runnable : (unit -> unit) Queue.t = Queue.create () in
  let retired = Array.make p 0 in
  let results = Array.make p None in
  let t0 = Clock.now_ns () in
  let chans j =
    Value_run.of_links ~procs:p
      ~send:(fun ~dst ~tag v ->
        Queue.push (tag, v) links.(j).(dst);
        match parked.(j).(dst) with
        | Some k ->
          parked.(j).(dst) <- None;
          Queue.add (fun () -> Effect.Deep.continue k ()) runnable
        | None -> ())
      ~next:(fun ~src ->
        let link = links.(src).(j) in
        if Queue.is_empty link then Effect.perform (Await src);
        Queue.pop link)
  in
  let start j () =
    Effect.Deep.match_with
      (fun () ->
        worker_with ~init:Interp.init ~scalars:Interp.default_scalar
          ~tick:(fun () -> retired.(j) <- retired.(j) + 1)
          ~lowered ~proc:j ~chans:(chans j) ())
      ()
      {
        retc =
          (fun (vals, sent) ->
            results.(j) <- Some (vals, sent, float_of_int (Clock.now_ns () - t0)));
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Await src ->
              Some
                (fun (k : (a, unit) Effect.Deep.continuation) ->
                  parked.(src).(j) <- Some k)
            | _ -> None);
      }
  in
  for j = 0 to p - 1 do
    Queue.add (start j) runnable
  done;
  while not (Queue.is_empty runnable) do
    (Queue.take runnable) ()
  done;
  (* The queue drained with a PE unfinished: every such PE is parked
     on a link no one will send on. *)
  if Array.exists Option.is_none results then
    raise
      (Watchdog.Runtime_deadlock
         {
           timeout = 0.0;
           snapshots =
             Watchdog.snapshots ~graph:program.graph ~programs:program.programs
               ~retired:(Array.get retired);
         });
  Value_run.finalize ~loop ~program ~computes:(Lower.computes lowered)
    ~results:(Array.map Option.get results)
