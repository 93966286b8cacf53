module Program = Mimd_codegen.Program
module Interp = Mimd_loop_ir.Interp
module Trace = Mimd_obs.Trace
module Clock = Mimd_obs.Clock

(* The per-processor evaluator: a tight match over a cinstr array with
   int fields.  All state is preallocated —
   the unboxed slot store, the evaluation stack, the computed-value
   array — so the compute path allocates nothing per instruction: [eval]
   stores its result in place, as a returned float would be boxed; only
   outbound message payloads are built on demand (they cross domains
   and must be fresh values either way).  Returns the function that
   executes one of processor [j]'s lowered instructions, and the one
   that reads the result: [vals.(k)] is the value of [computes.(k)]. *)
let processor ~init ~(lowered : Lower.t) ~proc:j ~(chans : Value_run.chans) =
  let pc = lowered.Lower.procs.(j) in
  (* NaN, not 0: a slot read before any write (impossible in a lowered
     program, guaranteed by the planted stale-slot fault) poisons the
     value instead of silently looking plausible. *)
  let slots = Array.make pc.Lower.slot_count nan in
  Array.iter
    (fun (array, idx, slot) -> slots.(slot) <- init array idx)
    pc.Lower.prefill;
  let scal = Array.map Interp.default_scalar lowered.Lower.scalar_names in
  let stack = Array.make pc.Lower.stack_need 0.0 in
  let vals = Array.make (Array.length pc.Lower.computes) 0.0 in
  let ci = ref 0 in
  let sent = ref 0 in
  let eval (code : Lower.code) (args : int array) dst =
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
    slots.(dst) <- stack.(0);
    vals.(!ci) <- stack.(0);
    incr ci
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
    | Lower.CCompute { code; args; dst; _ } -> eval code args dst
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
  let traced_exec ins =
    let int k v = (k, string_of_int v) in
    let msg name args peer q = (name, args @ [ int "pe" j; int peer q ]) in
    let name, args =
      match ins with
      | Lower.CCompute { node; iter; _ } -> ("run.compute", [ int "node" node; int "iter" iter ])
      | Lower.CSend { tag = node, iter; dst; _ } ->
        msg "run.send" [ int "node" node; int "iter" iter ] "dst" dst
      | Lower.CRecv { tag = node, iter; src; _ } ->
        msg "run.recv" [ int "node" node; int "iter" iter ] "src" src
      | Lower.CSend_pack { insts; dst; _ } ->
        msg "run.send" [ int "tags" (Array.length insts) ] "dst" dst
      | Lower.CRecv_pack { insts; src; _ } ->
        msg "run.recv" [ int "tags" (Array.length insts) ] "src" src
    in
    Trace.span ~cat:"run" ~args name (fun () -> exec ins)
  in
  ((if Trace.is_enabled () then traced_exec else exec), fun () -> (vals, !sent))

(* A processor on a thread of its own: its whole stream in order,
   [tick] after every instruction (the watchdog progress hook). *)
let drive ~init ~tick ~(lowered : Lower.t) ~proc ~chans =
  if Trace.is_enabled () then Trace.set_thread_name (Printf.sprintf "PE%d" proc);
  let exec, result = processor ~init ~lowered ~proc ~chans in
  Array.iter
    (fun ins ->
      exec ins;
      tick ())
    lowered.Lower.procs.(proc).Lower.instrs;
  result ()

let worker ~lowered ~proc ~chans () =
  drive ~init:Interp.init ~tick:ignore ~lowered ~proc ~chans

(* [lowered], or [program] lowered here. *)
let lowered_for name lowered ~loop ~(program : Program.t) =
  let l = match lowered with Some l -> l | None -> Lower.run ~loop ~program () in
  if l.Lower.processors <> program.processors then
    invalid_arg ("Exec_compiled." ^ name ^ ": lowered form is for another program");
  l

let run ?(init = Interp.init) ?watchdog ?lowered ~loop ~(program : Program.t) () =
  let lowered = lowered_for "run" lowered ~loop ~program in
  let p = program.processors in
  (* [links.(src).(dst)]: one bounded channel per ordered pair, all
     built up front so a cancel reaches every potential waiter. *)
  let capacity = Value_run.default_channel_capacity in
  let links = Array.init p (fun _ -> Array.init p (fun _ -> Channel.create ~capacity)) in
  let t0 = Clock.now_ns () in
  let worker ~proc:j ~tick =
    let chans =
      Value_run.of_links ~procs:p
        ~send:(fun ~dst ~tag v ->
          if dst = j then invalid_arg "Exec_compiled.run: self message";
          Channel.send links.(j).(dst) (tag, v))
        ~next:(fun ~src -> Channel.recv links.(src).(j))
    in
    let vals, sent = drive ~init ~tick ~lowered ~proc:j ~chans in
    (vals, sent, float_of_int (Clock.now_ns () - t0))
  in
  let results =
    Domains.run ?watchdog ~graph:program.graph ~programs:program.programs
      ~cancel_all:(fun () -> Array.iter (Array.iter Channel.cancel) links)
      ~worker ()
  in
  Value_run.finalize ~loop ~program ~computes:(Lower.computes lowered) ~results

let run_inline ?lowered ~loop ~(program : Program.t) () =
  let lowered = lowered_for "run_inline" lowered ~loop ~program in
  let p = program.processors in
  let retired = Array.make p 0 and wall = Array.make p 0.0 in
  (* The one frame in hand: a Send's payload on its way out to the
     simulation, or a Recv's on its way in from it. *)
  let frame = ref None in
  let chans =
    {
      Value_run.send = (fun ~dst:_ ~tag:_ v -> frame := Some v);
      recv = (fun ~src:_ ~tag:_ -> Option.get !frame);
    }
  in
  let pes =
    Array.init p (fun proc ->
        processor ~init:Interp.init ~lowered ~proc ~chans)
  in
  let t0 = Clock.now_ns () in
  let value_step ~proc ~pc got =
    let instrs = lowered.Lower.procs.(proc).Lower.instrs in
    frame := got;
    fst pes.(proc) instrs.(pc);
    retired.(proc) <- pc + 1;
    if pc + 1 = Array.length instrs then wall.(proc) <- float_of_int (Clock.now_ns () - t0);
    !frame
  in
  match Program.simulate ~step:value_step program with
  | Ok _ ->
    Value_run.finalize ~loop ~program ~computes:(Lower.computes lowered)
      ~results:
        (Array.mapi
           (fun j (_, result) ->
             let vals, sent = result () in
             (vals, sent, wall.(j)))
           pes)
  | Error (Program.Stuck _) ->
    (* Every unfinished PE waits for a frame no one will send. *)
    raise
      (Watchdog.Runtime_deadlock
         {
           timeout = 0.0;
           snapshots =
             Watchdog.snapshots ~graph:program.graph ~programs:program.programs
               ~retired:(Array.get retired);
         })
  | Error f ->
    invalid_arg
      (Format.asprintf "Exec_compiled.run_inline: %a"
         (Program.pp_failure ~names:(Mimd_ddg.Graph.name program.graph))
         f)
