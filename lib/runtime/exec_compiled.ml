module Program = Mimd_codegen.Program
module Interp = Mimd_loop_ir.Interp
module Trace = Mimd_obs.Trace
module Clock = Mimd_obs.Clock

(* The per-processor evaluator: a tight walk over the flat records of
   {!Lower}.  All state is preallocated — the unboxed slot store, the
   evaluation stack, the computed-value array — so the compute path
   allocates nothing per instruction: [eval] stores its result in
   place, as a returned float would be boxed; only outbound message
   payloads are built on demand (they cross domains and must be fresh
   values either way), around tags built at lower time.  Returns the
   function that executes instruction [k] of processor [j]'s lowered
   stream, and the one that reads the result: [vals.(k)] is the value
   of the [k]-th pair of [computes]. *)
let processor ~init ~(lowered : Lower.t) ~proc:j ~(chans : Value_run.chans) =
  let pc = lowered.Lower.procs.(j) in
  let instrs = pc.Lower.instrs and pool = pc.Lower.pool and tags = pc.Lower.tags in
  let codes = lowered.Lower.codes in
  (* NaN, not 0: a slot read before any write (impossible in a lowered
     program, guaranteed by the planted stale-slot fault) poisons the
     value instead of silently looking plausible. *)
  let slots = Array.make pc.Lower.slot_count nan in
  let prefill = pc.Lower.prefill in
  for f = 0 to (Array.length prefill / 3) - 1 do
    slots.(prefill.((3 * f) + 2)) <-
      init lowered.Lower.array_names.(prefill.(3 * f)) prefill.((3 * f) + 1)
  done;
  let scal = Array.map Interp.default_scalar lowered.Lower.scalar_names in
  let stack = Array.make pc.Lower.stack_need 0.0 in
  let vals = Array.make (Array.length pc.Lower.computes / 2) 0.0 in
  let ci = ref 0 in
  let sent = ref 0 in
  let eval (code : Lower.code) args dst =
    let ops = code.Lower.ops in
    let sp = ref 0 in
    for k = 0 to Array.length ops - 1 do
      match ops.(k) with
      | Lower.Load a ->
        stack.(!sp) <- slots.(pool.(args + a));
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
  (* Land one frame's pairs on the [m] (node, iter, slot) triples at
     [at]: arrivals usually match them positionally (both sides come
     from the same Comm_opt rewrite); fall back to a linear search, and
     ignore instances this PE has no slot for — it can never read
     them. *)
  let land_pack at m pairs =
    for i = 0 to Array.length pairs - 1 do
      let (node, iter), v = pairs.(i) in
      let e = at + (3 * i) in
      if i < m && pool.(e) = node && pool.(e + 1) = iter then slots.(pool.(e + 2)) <- v
      else begin
        let k = ref 0 in
        while !k < m && not (pool.(at + (3 * !k)) = node && pool.(at + (3 * !k) + 1) = iter) do
          incr k
        done;
        if !k < m then slots.(pool.(at + (3 * !k) + 2)) <- v
      end
    done
  in
  let exec k =
    let b = k * Lower.width in
    let kind = instrs.(b + Lower.field_kind) in
    let peer = instrs.(b + Lower.field_peer) in
    let at = instrs.(b + Lower.field_pool) in
    let aux = instrs.(b + Lower.field_aux) in
    if kind = Lower.compute then eval codes.(instrs.(b + Lower.field_node)) at aux
    else if kind = Lower.send then begin
      chans.Value_run.send ~dst:peer ~tag:tags.(aux) (Value_run.Single slots.(pool.(at)));
      incr sent
    end
    else if kind = Lower.send_pack then begin
      let pairs = Array.make instrs.(b + Lower.field_count) (tags.(aux), slots.(pool.(at))) in
      for i = 1 to Array.length pairs - 1 do
        pairs.(i) <- (tags.(aux + i), slots.(pool.(at + i)))
      done;
      chans.Value_run.send ~dst:peer ~tag:tags.(aux) (Value_run.Pack pairs);
      incr sent
    end
    else
      (* A Recv or a Recv_pack: either may take a Single or a Pack. *)
      match chans.Value_run.recv ~src:peer ~tag:tags.(aux) with
      | Value_run.Single v -> slots.(pool.(at + 2)) <- v
      | Value_run.Pack pairs -> land_pack at instrs.(b + Lower.field_count) pairs
  in
  let traced_exec k =
    let b = k * Lower.width in
    let field f = instrs.(b + f) in
    let int name v = (name, string_of_int v) in
    let msg name args peer q = (name, args @ [ int "pe" j; int peer q ]) in
    let instance = [ int "node" (field Lower.field_node); int "iter" (field Lower.field_iter) ] in
    let kind = field Lower.field_kind and peer = field Lower.field_peer in
    let name, args =
      if kind = Lower.compute then ("run.compute", instance)
      else if kind = Lower.send then msg "run.send" instance "dst" peer
      else if kind = Lower.recv then msg "run.recv" instance "src" peer
      else if kind = Lower.send_pack then
        msg "run.send" [ int "tags" (field Lower.field_count) ] "dst" peer
      else msg "run.recv" [ int "tags" (field Lower.field_count) ] "src" peer
    in
    Trace.span ~cat:"run" ~args name (fun () -> exec k)
  in
  ((if Trace.is_enabled () then traced_exec else exec), fun () -> (vals, !sent))

(* A processor on a thread of its own: its whole stream in order.
   [Error (pc, e)]: instruction [pc] (0 while the state is built)
   raised [e]. *)
let drive ~init ~(lowered : Lower.t) ~proc ~chans =
  if Trace.is_enabled () then Trace.set_thread_name (Printf.sprintf "PE%d" proc);
  let pc = ref 0 in
  match
    let exec, result = processor ~init ~lowered ~proc ~chans in
    for k = 0 to Lower.instr_count lowered.Lower.procs.(proc) - 1 do
      pc := k;
      exec k
    done;
    result ()
  with
  | r -> Ok r
  | exception e -> Error (!pc, e)

let worker ~lowered ~proc ~chans () =
  match drive ~init:Interp.init ~lowered ~proc ~chans with Ok r -> r | Error (_, e) -> raise e

(* [lowered], or [program] lowered here. *)
let lowered_for name lowered ~loop ~(program : Program.t) =
  let l = match lowered with Some l -> l | None -> Lower.run ~loop ~program () in
  if l.Lower.processors <> program.processors then
    invalid_arg ("Exec_compiled." ^ name ^ ": lowered form is for another program");
  l

let run ?(init = Interp.init) ?(timeout = 5.0) ?lowered ~loop ~(program : Program.t) () =
  let lowered = lowered_for "run" lowered ~loop ~program in
  let p = program.processors in
  (* The socket team's ring mesh, every row built up front so a cancel
     reaches every potential waiter, and the pipe each domain rings
     once it has stopped; both closed on every way out. *)
  let mesh = Mesh_sock.create ~procs:p () in
  Fun.protect ~finally:(fun () -> Mesh_sock.close_all mesh) @@ fun () ->
  let bell, ring = Unix.pipe ~cloexec:true () in
  Fun.protect ~finally:(fun () -> List.iter Unix.close [ bell; ring ]) @@ fun () ->
  let rows = Array.init p (fun proc -> Mesh_sock.ring_row mesh ~proc) in
  (* Domain j's slot: the pc it stopped at and what it stopped with. *)
  let slots = Array.init p (fun _ -> Atomic.make None) in
  let t0 = Clock.now_ns () in
  let body j () =
    let stop =
      match drive ~init ~lowered ~proc:j ~chans:(Mesh_sock.row_chans rows.(j)) with
      | Ok (vals, sent) ->
        let wall = float_of_int (Clock.now_ns () - t0) in
        (Lower.instr_count lowered.Lower.procs.(j), Ok (vals, sent, wall))
      | Error (pc, e) ->
        (* Fail fast: siblings blocked on this domain's messages must
           not wait out the stall bound. *)
        (match e with Mesh_sock.Link_down _ -> () | _ -> Mesh_sock.cancel mesh);
        (pc, Error e)
    in
    Atomic.set slots.(j) (Some stop);
    ignore (Unix.write_substring ring "." 0 1)
  in
  let event j = function
    | _, Ok _ -> Collect.Report j
    | _, Error (Mesh_sock.Link_down _) -> Symptom (j, "runtime: domain torn down without a stall")
    | _, Error e ->
      Own (j, Printf.sprintf "runtime: domain %d failed: %s" j (Printexc.to_string e))
  in
  let buf = Bytes.create p in
  let wait pending seconds =
    match Unix.select [ bell ] [] [] seconds with
    | [], _, _ | (exception Unix.Unix_error (Unix.EINTR, _, _)) -> []
    | _ ->
      ignore (Unix.read bell buf 0 p);
      List.filter_map (fun j -> Option.map (event j) (Atomic.get slots.(j))) pending
  in
  (* Every domain is joined before the mesh closes.  The cancel wakes
     any still waiting (after a stall or a failure); after a run that
     ended well it finds none. *)
  let domains = ref [] in
  let verdict =
    Fun.protect ~finally:(fun () ->
        Mesh_sock.cancel mesh;
        List.iter Domain.join !domains)
    @@ fun () ->
    for j = 0 to p - 1 do
      domains := Domain.spawn (body j) :: !domains
    done;
    Collect.run ~procs:p ~timeout ~now:Clock.now_ns ~wait
  in
  let stopped j = Option.get (Atomic.get slots.(j)) in
  match verdict with
  | Collect.Done ->
    Value_run.finalize ~loop ~program ~computes:(Lower.computes lowered)
      ~results:(Array.init p (fun j -> Result.get_ok (snd (stopped j))))
  | Failed msg -> failwith msg
  | Stalled _ ->
    raise
      (Watchdog.Runtime_deadlock
         {
           timeout;
           snapshots =
             Watchdog.snapshots ~graph:program.graph ~programs:program.programs
               ~retired:(fun j -> fst (stopped j));
         })

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
    frame := got;
    fst pes.(proc) pc;
    retired.(proc) <- pc + 1;
    if pc + 1 = Lower.instr_count lowered.Lower.procs.(proc) then
      wall.(proc) <- float_of_int (Clock.now_ns () - t0);
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
