module Program = Mimd_codegen.Program
module Interp = Mimd_loop_ir.Interp
module Trace = Mimd_obs.Trace
module Clock = Mimd_obs.Clock
module Metrics = Mimd_obs.Metrics

(* The per-processor evaluator: a tight walk over the program's own
   records and the slots {!Lower} bound beside them.  All state is
   preallocated — the unboxed value store, the evaluation stack, the
   computed-value array — so the compute path allocates nothing per
   instruction: [eval] stores its result in place, as a returned float
   would be boxed; only outbound message payloads are built on demand
   (they cross domains and must be fresh values either way).  Returns
   the function that executes instruction [k] of processor [j]'s
   stream, and the one that reads the result: [vals.(k)] is the value
   of its [k]-th compute. *)
let processor ~init ~(lowered : Lower.t) ~proc:j ~(chans : Value_run.chans) =
  let pc = lowered.Lower.procs.(j) in
  let ins = pc.Lower.code.Program.instrs and tail = pc.Lower.code.Program.pool in
  let at = pc.Lower.at and slots = pc.Lower.slots in
  let codes = lowered.Lower.codes in
  (* NaN, not 0: a slot read before any write (impossible in a lowered
     program, guaranteed by the planted stale-slot fault) poisons the
     value instead of silently looking plausible. *)
  let store = Array.make pc.Lower.slot_count nan in
  let prefill = pc.Lower.prefill in
  for f = 0 to (Array.length prefill / 3) - 1 do
    store.(prefill.((3 * f) + 2)) <-
      init lowered.Lower.array_names.(prefill.(3 * f)) prefill.((3 * f) + 1)
  done;
  let scal = Array.map Interp.default_scalar lowered.Lower.scalar_names in
  let stack = Array.make pc.Lower.stack_need 0.0 in
  let vals = Array.make pc.Lower.compute_count 0.0 in
  let ci = ref 0 in
  let sent = ref 0 in
  let eval (code : Lower.code) args dst =
    let ops = code.Lower.ops in
    let sp = ref 0 in
    for k = 0 to Array.length ops - 1 do
      match ops.(k) with
      | Lower.Load a ->
        stack.(!sp) <- store.(slots.(args + a));
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
    store.(dst) <- stack.(0);
    vals.(!ci) <- stack.(0);
    incr ci
  in
  (* Tag [i] of the message whose record starts at [b]: the head is in
     the record, the rest in the pool. *)
  let tag_node b i =
    if i = 0 then ins.(b + Program.field_node) else tail.(ins.(b + Program.field_at) + (2 * i) - 2)
  in
  let tag_iter b i =
    if i = 0 then ins.(b + Program.field_iter) else tail.(ins.(b + Program.field_at) + (2 * i) - 1)
  in
  (* Land one frame's pairs on the landing slots at [a] of the [m]-tag
     recv at [b]: arrivals usually match its tags positionally (both
     sides come from the same Comm_opt rewrite); fall back to a linear
     search, and ignore instances this PE has no slot for — it can
     never read them. *)
  let land_pack b a pairs =
    let m = ins.(b + Program.field_count) in
    let is k node iter = tag_node b k = node && tag_iter b k = iter in
    for i = 0 to Array.length pairs - 1 do
      let (node, iter), v = pairs.(i) in
      if i < m && is i node iter then store.(slots.(a + i)) <- v
      else begin
        let k = ref 0 in
        while !k < m && not (is !k node iter) do
          incr k
        done;
        if !k < m then store.(slots.(a + !k)) <- v
      end
    done
  in
  (* The record layout, bound once: [Program]'s constants are loads
     from its module block in a build without cross-module inlining. *)
  let width = Program.width and f_kind = Program.field_kind in
  let f_node = Program.field_node and f_iter = Program.field_iter in
  let f_peer = Program.field_peer and compute = Program.compute in
  let exec k =
    let b = k * width and a = at.(k) in
    let kind = ins.(b + f_kind) and node = ins.(b + f_node) in
    if kind = compute then eval codes.(node) (a + 1) slots.(a)
    else
      let iter = ins.(b + f_iter) and peer = ins.(b + f_peer) in
      if kind = Program.send then begin
        chans.Value_run.send ~dst:peer ~node ~iter (Value_run.Single store.(slots.(a)));
        incr sent
      end
      else if kind = Program.send_pack then begin
        let pairs =
          Array.init ins.(b + Program.field_count) (fun i ->
              ((tag_node b i, tag_iter b i), store.(slots.(a + i))))
        in
        chans.Value_run.send ~dst:peer ~node ~iter (Value_run.Pack pairs);
        incr sent
      end
      else
        (* A Recv or a Recv_pack: either may take a Single or a Pack. *)
        match chans.Value_run.recv ~src:peer ~node ~iter with
        | Value_run.Single v -> store.(slots.(a)) <- v
        | Value_run.Pack pairs -> land_pack b a pairs
  in
  let traced_exec k =
    let b = k * Program.width in
    let field f = ins.(b + f) in
    let int name v = (name, string_of_int v) in
    let msg name args peer q = (name, args @ [ int "pe" j; int peer q ]) in
    let instance =
      [ int "node" (field Program.field_node); int "iter" (field Program.field_iter) ]
    in
    let kind = field Program.field_kind and peer = field Program.field_peer in
    let name, args =
      if kind = Program.compute then ("run.compute", instance)
      else if kind = Program.send then msg "run.send" instance "dst" peer
      else if kind = Program.recv then msg "run.recv" instance "src" peer
      else if kind = Program.send_pack then
        msg "run.send" [ int "tags" (field Program.field_count) ] "dst" peer
      else msg "run.recv" [ int "tags" (field Program.field_count) ] "src" peer
    in
    Trace.span ~cat:"run" ~args name (fun () -> exec k)
  in
  ((if Trace.is_enabled () then traced_exec else exec), fun () -> (vals, !sent))

(* A processor's whole stream in order.  [Error (pc, e)]: instruction
   [pc] (0 while the state is built) raised [e]. *)
let worker ?(init = Interp.init) ~lowered ~proc ~chans () =
  if Trace.is_enabled () then Trace.set_thread_name (Printf.sprintf "PE%d" proc);
  let pc = ref 0 in
  match
    let exec, result = processor ~init ~lowered ~proc ~chans in
    for k = 0 to Program.length lowered.Lower.procs.(proc).Lower.code - 1 do
      pc := k;
      exec k
    done;
    result ()
  with
  | r -> Ok r
  | exception e -> Error (!pc, e)

(* [lowered], checked against [program], or [program] lowered here. *)
let lowered_for name lowered ~loop ~program =
  match lowered with
  | Some l ->
    Lower.check_form ~caller:("Exec_compiled." ^ name) l ~program;
    l
  | None -> Lower.run ~loop ~program ()

(* The domain member kind: p domains on one ring mesh, every row built
   up front so a cancel reaches every potential waiter.  A domain that
   stops serving (its call failed, or its control socket closed)
   cancels the mesh, so that peers blocked on its messages do not wait
   out the stall bound, and closes its end of the control socket. *)
let domains ?init ~procs () =
  let mesh = Mesh_sock.create ~procs () in
  let rows = Array.init procs (fun proc -> Mesh_sock.ring_row mesh ~proc) in
  let started = ref [] in
  let spawn j =
    let ours, theirs = Unix.socketpair ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let serve () =
      Team.serve theirs ~proc:j ~traces:false ~worker:(worker ?init) (fun () -> rows.(j))
    in
    let stop () =
      Mesh_sock.cancel mesh;
      Unix.close theirs
    in
    match Domain.spawn (fun () -> Fun.protect serve ~finally:stop) with
    | d ->
      started := d :: !started;
      Metrics.inc
        (Metrics.counter ~help:"Domains started as team members" Metrics.default
           "mimd_runtime_spawns_total");
      ours
    | exception e ->
      List.iter Unix.close [ ours; theirs ];
      raise e
  in
  let finish () =
    List.iter (fun d -> try Domain.join d with _ -> ()) !started;
    Mesh_sock.close_all mesh
  in
  let exited _ = "stopped without a reply" in
  let cancel () = Mesh_sock.cancel mesh in
  { Team.layer = "runtime"; spawn; spawned = ignore; cancel; finish; exited }

let warm = Team.slot ()
let shutdown () = Team.clear warm

let run ?init ?(timeout = 5.0) ?lowered ~loop ~(program : Program.t) () =
  let procs = program.processors in
  let lower () = lowered_for "run" lowered ~loop ~program in
  if Option.is_some lowered then ignore (lower ());
  let start ?once () = Team.start ?once (domains ?init ~procs ()) ~procs ~timeout in
  match
    let team =
      match init with
      | None -> Team.take warm ~procs ~start
      | Some _ ->
        shutdown ();
        start ~once:true ()
    in
    Team.call team ~timeout ~lower ~loop ~program ()
  with
  | outcome -> outcome
  | exception Team.Team_failed (Stalled { replies; _ }) ->
    let retired j =
      match replies.(j) with
      | Some (Team.Failed { pc; _ }) -> pc
      | Some (Done _) -> Program.length program.code.(j)
      | Some Ready | None -> 0
    in
    let snapshots = Watchdog.snapshots ~program ~retired in
    raise (Watchdog.Runtime_deadlock { timeout; snapshots })
  | exception Team.Team_failed f ->
    failwith
      (match f with
      | _ when Team.symptom f -> "runtime: domain torn down without a stall"
      | Raised { proc; message; _ } | Exited { proc; status = message } ->
        Printf.sprintf "runtime: domain %d failed: %s" proc message
      | Stalled _ -> assert false)

let run_inline ?lowered ~loop ~(program : Program.t) () =
  let lowered = lowered_for "run_inline" lowered ~loop ~program in
  let p = program.processors in
  let retired = Array.make p 0 and wall = Array.make p 0.0 in
  (* The one frame in hand: a Send's payload on its way out to the
     simulation, or a Recv's on its way in from it. *)
  let frame = ref None in
  let chans =
    {
      Value_run.send = (fun ~dst:_ ~node:_ ~iter:_ v -> frame := Some v);
      recv = (fun ~src:_ ~node:_ ~iter:_ -> Option.get !frame);
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
    if pc + 1 = Program.length lowered.Lower.procs.(proc).Lower.code then
      wall.(proc) <- float_of_int (Clock.now_ns () - t0);
    !frame
  in
  match Program.simulate ~step:value_step program with
  | Ok _ ->
    Value_run.finalize ~loop ~program
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
             Watchdog.snapshots ~program ~retired:(Array.get retired);
         })
  | Error f ->
    invalid_arg
      (Format.asprintf "Exec_compiled.run_inline: %a"
         (Program.pp_failure ~names:(Mimd_ddg.Graph.name program.graph))
         f)
