module Graph = Mimd_ddg.Graph
module Config = Mimd_machine.Config
module Full_sched = Mimd_core.Full_sched
module Pattern = Mimd_core.Pattern
module Ast = Mimd_loop_ir.Ast
module Parser = Mimd_loop_ir.Parser
module Depend = Mimd_loop_ir.Depend
module Interp = Mimd_loop_ir.Interp
module Value_run = Mimd_runtime.Value_run
module Exec_compiled = Mimd_runtime.Exec_compiled
module Watchdog = Mimd_runtime.Watchdog

type fault = No_fault | Hasten_dependent | Keep_extra_send

type case = {
  loop : Ast.loop;
  processors : int;
  comm : int;
  iterations : int;
}

type config = {
  count : int;
  seed : int;
  fault : fault;
  runtime : bool;
  out_dir : string option;
}

let default_config =
  { count = 200; seed = 0; fault = No_fault; runtime = true; out_dir = None }

type outcome =
  | Passed of int
  | Failed of { case : case; reason : string; file : string option }

(* ------------------------------------------------------------------ *)
(* The oracle for one case                                             *)

let ( let* ) = Result.bind

let labelled label r = Result.map_error (( ^ ) label) r

(* The socket backend lives above this library in the dependency graph
   (mimd_dist -> mimd_server -> mimd_check), so the oracle reaches it
   through an injected hook; [mimdloop] installs it at startup, the
   same pattern as {!Validate.install_hooks}.  The hook runs the
   program on forked processes and returns its instance values. *)
let socket_backend :
    (loop:Ast.loop ->
    program:Mimd_codegen.Program.t ->
    (((int * int) * float) list, string) result)
    option
    ref =
  ref None

(* Run [f] in a forked child that marshals its result back over a pipe
   and exits without returning to the harness.  The domain runtime
   poisons fork (OCaml forbids forking once a domain exists) and the
   socket backend forks, so while the socket leg is on the domain leg
   runs here: the parent never creates a domain and stays fork-safe
   for the next case. *)
let in_child (f : unit -> 'a) : ('a, string) result =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let result : ('a, string) result =
      try Ok (f ()) with e -> Error ("exception: " ^ Printexc.to_string e)
    in
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc result [];
    flush oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let result =
      match (Marshal.from_channel ic : ('a, string) result) with
      | result -> result
      | exception _ -> Error "domain helper child died before reporting"
    in
    In_channel.close ic;
    ignore (Unix.waitpid [] pid);
    result

let check_case ?(fault = No_fault) ?(runtime = true) ?window case =
  (* The default window is a deterministic function of the case, so a
     replayed counterexample exercises exactly the coalescing the
     original run did without the dump having to carry the window. *)
  let window =
    match window with Some w -> w | None -> 1 + (case.iterations mod 4)
  in
  try
    let loop =
      if Ast.is_flat case.loop then case.loop else Mimd_loop_ir.If_convert.run case.loop
    in
    let graph = (Depend.analyze loop).Depend.graph in
    let machine = Config.make ~processors:case.processors ~comm_estimate:case.comm in
    let full = Full_sched.run ~graph ~machine ~iterations:case.iterations () in
    let sched =
      match fault with
      | No_fault | Keep_extra_send -> full.Full_sched.schedule
      | Hasten_dependent -> (
        match Validate.break_dependence full.Full_sched.schedule with
        | Some broken -> broken
        | None -> full.Full_sched.schedule (* nothing to break: vacuous case *))
    in
    let names = Graph.name graph in
    (* Validation first: an injected (or real) schedule bug must be
       reported without ever executing the broken programs. *)
    let* () = Validate.error_of ~names (Validate.schedule sched) in
    let* () =
      match full.Full_sched.pattern with
      | None -> Ok ()
      | Some p -> Validate.error_of ~names:(Graph.name p.Pattern.graph) (Validate.pattern p)
    in
    let program = Mimd_codegen.From_schedule.run sched in
    let* () = Validate.error_of ~names (Validate.program program) in
    let comm_fault =
      match fault with
      | Keep_extra_send -> Some Mimd_codegen.Comm_opt.Keep_extra_send
      | No_fault | Hasten_dependent -> None
    in
    match Mimd_codegen.Comm_opt.run ~window ?fault:comm_fault program with
    | exception Failure m -> Error ("comm-opt self-check: " ^ m)
    | opt, _stats ->
      (* The independent token simulation must accept every optimized
         program — with an injected fault it must reject it instead,
         which surfaces here as the case failing. *)
      let* () =
        labelled "optimized program rejected: "
          (Validate.error_of ~names (Validate.program opt))
      in
      (* Value differential: every leg's instance list against the
         spec, bit for bit.  The inline legs run the lowered evaluator
         on this thread (no domain, so the harness stays fork-safe);
         the base one also checks the last-writer fold against the
         interpreter's final memory. *)
      let spec = Interp.instance_values loop ~iterations:case.iterations in
      let against_spec label instances =
        labelled (label ^ " vs interpreter: ") (Value_run.check_instances ~spec instances)
      in
      let inline_base = Exec_compiled.run_inline ~loop ~program () in
      let* () = against_spec "inline base" inline_base.Value_run.instance_values in
      let* () =
        labelled "inline base final memory vs interpreter: "
          (Value_run.check_against_sequential ~loop ~iterations:case.iterations inline_base)
      in
      let* () =
        against_spec "inline comm-opted"
          (Exec_compiled.run_inline ~loop ~program:opt ()).Value_run.instance_values
      in
      if not runtime then Ok ()
      else begin
        (* ... then on the socket backend (it forks, so it goes first)
           and on real domains, base and optimized alike, so widened
           (fan-out) programs get compiled coverage with and without
           packed frames. *)
        let* () =
          match !socket_backend with
          | None -> Ok ()
          | Some run_sockets ->
            let* sock = run_sockets ~loop ~program:opt in
            against_spec "sockets" sock
        in
        let domains () =
          let watchdog = Watchdog.config ~timeout:30.0 () in
          let run program = Exec_compiled.run ~watchdog ~loop ~program () in
          let base = run program in
          (base.Value_run.instance_values, (run opt).Value_run.instance_values)
        in
        let* dom_base, dom_opt =
          if Option.is_some !socket_backend then in_child domains else Ok (domains ())
        in
        let* () = against_spec "domains base" dom_base in
        against_spec "domains opt" dom_opt
      end
  with e -> Error ("exception: " ^ Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Replayable counterexample files                                     *)

let render_case (case : case) =
  Format.asprintf
    "# mimd-check fuzz counterexample (replay: mimdloop check --replay <file>)@\n\
     # processors: %d@\n\
     # comm: %d@\n\
     # iterations: %d@\n\
     %a@."
    case.processors case.comm case.iterations Ast.pp_loop case.loop

let sanitize_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let dump_case ?(name = "mimd-fuzz-counterexample.loop") ~dir ~reason case =
  Mimd_util.Fs.mkdir_p dir;
  let path = Filename.concat dir name in
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc
        (Printf.sprintf "# reason: %s\n" (sanitize_line reason));
      Out_channel.output_string oc (render_case case));
  path

let load_case path =
  let src = In_channel.with_open_text path In_channel.input_all in
  let lines = List.map String.trim (String.split_on_char '\n' src) in
  (* The value of the first [# key: value] header line, if any. *)
  let header key =
    let prefix = "# " ^ key ^ ":" in
    List.find_map
      (fun line ->
        if String.starts_with ~prefix line then
          let n = String.length prefix in
          Some (String.trim (String.sub line n (String.length line - n)))
        else None)
      lines
  in
  let int_header key default =
    Option.value ~default (Option.bind (header key) int_of_string_opt)
  in
  (* Files dumped before the oracles merged name the one they failed
     in; every such case replays through the one oracle, which makes
     all of their checks. *)
  (match header "oracle" with
  | None | Some ("pipeline" | "comm" | "exec") -> ()
  | Some other -> failwith (Printf.sprintf "%s: unknown fuzz oracle %S" path other));
  (* Files dumped while cases could be priced with a per-link matrix
     say so; that machine no longer exists, and replaying the loop on
     the uniform one would check a different case. *)
  (match header "matrix" with
  | None -> ()
  | Some v ->
    failwith
      (Printf.sprintf "%s: \"# matrix: %s\" header: per-link matrix cases are no longer \
                       supported"
         path v));
  {
    loop = Parser.parse src;
    processors = int_header "processors" 2;
    comm = int_header "comm" 2;
    iterations = int_header "iterations" 10;
  }

(* ------------------------------------------------------------------ *)
(* The QCheck harness                                                  *)

(* Random flat loops, the shape of Random_loop.generate_loop: every
   statement writes offset 0 of one of a few arrays, reads use offsets
   in {-1, 0}, so dependence distances stay in the scheduler's {0, 1}.
   Operators exclude division to keep the float differential free of
   NaN/infinity plumbing. *)
let gen_case =
  QCheck2.Gen.(
    let arrays = [| "A"; "B"; "C"; "D" |] in
    let gen_ref =
      let* arr = int_range 0 (Array.length arrays - 1) in
      let* off = int_range (-1) 0 in
      return (Ast.Ref { array = arrays.(arr); offset = off })
    in
    let rec gen_expr depth =
      if depth = 0 then oneof [ gen_ref; map (fun k -> Ast.Int k) (int_range 1 5) ]
      else
        oneof
          [
            gen_ref;
            map (fun k -> Ast.Int k) (int_range 1 5);
            (let* op = oneofl [ Ast.Add; Ast.Sub; Ast.Mul ] in
             let* a = gen_expr (depth - 1) in
             let* b = gen_expr (depth - 1) in
             return (Ast.Binop (op, a, b)));
          ]
    in
    let* nstmts = int_range 1 6 in
    let* body =
      list_size (return nstmts)
        (let* arr = int_range 0 (Array.length arrays - 1) in
         let* rhs = gen_expr 2 in
         return (Ast.Assign { array = arrays.(arr); offset = 0; rhs }))
    in
    (* Fan-out, on a per-case coin: extra reads of earlier writers
       create transitive (diamond) dependence shapes a pure statement
       chain never produces — elision fodder for comm-opt, and
       pack-bearing programs for the compiled executor.  The other half
       of the cases stay pure chains. *)
    let rec widen earlier acc = function
      | [] -> return (List.rev acc)
      | Ast.Assign { array; offset; rhs } :: rest ->
        let* rhs =
          if earlier = [] then return rhs
          else
            let* add = bool in
            if not add then return rhs
            else
              let* j = int_range 0 (List.length earlier - 1) in
              let* off = int_range (-1) 0 in
              return
                (Ast.Binop
                   (Ast.Add, rhs, Ast.Ref { array = List.nth earlier j; offset = off }))
        in
        widen (array :: earlier) (Ast.Assign { array; offset; rhs } :: acc) rest
      | stmt :: rest -> widen earlier (stmt :: acc) rest
    in
    let* fan_out = bool in
    let* body = if fan_out then widen [] [] body else return body in
    let* processors = int_range 2 4 in
    let* comm = int_range 0 2 in
    let* iterations = int_range 4 14 in
    return
      { loop = { Ast.index = "i"; lo = "1"; hi = "n"; body }; processors; comm; iterations })

let run cfg =
  (* QCheck2's integrated shrinking re-runs the property on ever
     smaller candidates and stops at a minimal failing one — so the
     last failure the property itself observes IS the shrunk case. *)
  let last_failure = ref None in
  let prop (case : case) =
    match check_case ~fault:cfg.fault ~runtime:cfg.runtime case with
    | Ok () -> true
    | Error reason ->
      last_failure := Some (case, reason);
      false
  in
  (* What QCheck prints for a (shrunk) counterexample is the dump
     format, so it can be pasted back and replayed. *)
  let cell =
    QCheck2.Test.make_cell ~name:"mimd-check fuzz" ~count:cfg.count ~print:render_case
      gen_case prop
  in
  let result = QCheck2.Test.check_cell ~rand:(Random.State.make [| cfg.seed |]) cell in
  if QCheck2.TestResult.is_success result then Passed cfg.count
  else
    match !last_failure with
    | None ->
      (* unreachable in practice: the property never raises *)
      Failed
        {
          case =
            {
              loop = { Ast.index = "i"; lo = "1"; hi = "n"; body = [] };
              processors = 2;
              comm = 2;
              iterations = 1;
            };
          reason = "fuzz failed without a recorded counterexample";
          file = None;
        }
    | Some (case, reason) -> (
      match Option.map (fun dir -> dump_case ~dir ~reason case) cfg.out_dir with
      | file -> Failed { case; reason; file }
      | exception Sys_error e ->
        Failed { case; reason = reason ^ " (counterexample not dumped: " ^ e ^ ")"; file = None })

let describe = function
  | Passed n -> Printf.sprintf "fuzz: %d case(s) passed" n
  | Failed { case; reason; file } ->
    Printf.sprintf "fuzz: FAILED — %s\nshrunk counterexample:\n%s%s" reason
      (render_case case)
      (match file with
      | Some path -> Printf.sprintf "dumped to %s (replay: mimdloop check --replay %s)" path path
      | None -> "")
