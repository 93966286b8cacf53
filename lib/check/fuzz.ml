module Graph = Mimd_ddg.Graph
module Config = Mimd_machine.Config
module Full_sched = Mimd_core.Full_sched
module Pattern = Mimd_core.Pattern
module Ast = Mimd_loop_ir.Ast
module Parser = Mimd_loop_ir.Parser
module Depend = Mimd_loop_ir.Depend
module Value_exec = Mimd_sim.Value_exec
module Links = Mimd_sim.Links
module Value_run = Mimd_runtime.Value_run
module Exec_compiled = Mimd_runtime.Exec_compiled
module Watchdog = Mimd_runtime.Watchdog

type fault = No_fault | Hasten_dependent | Keep_extra_send

type oracle = Pipeline | Comm

type case = {
  loop : Ast.loop;
  processors : int;
  comm : int;
  iterations : int;
  oracle : oracle;
  matrix : bool;
}

type config = {
  count : int;
  seed : int;
  fault : fault;
  runtime : bool;
  out_dir : string option;
  oracle : oracle;
  matrix : bool;
}

let default_config =
  {
    count = 200;
    seed = 0;
    fault = No_fault;
    runtime = true;
    out_dir = None;
    oracle = Pipeline;
    matrix = false;
  }

(* The per-link matrix of a matrix-mode case is a deterministic
   function of the case — like the comm-opt window — so a dumped
   counterexample replays through exactly the machine that failed
   without the file having to carry a matrix.  Entries stay within
   [0, comm] ([k] must remain the upper bound over every link) and the
   matrix is asymmetric whenever [comm > 0]. *)
let case_matrix (case : case) =
  let p = case.processors in
  Array.init p (fun i ->
      Array.init p (fun j ->
          if i = j then 0
          else ((i * 31) + (j * 17) + case.iterations) mod (case.comm + 1)))

let machine_of_case (case : case) =
  let machine = Config.make ~processors:case.processors ~comm_estimate:case.comm in
  if case.matrix then Config.with_matrix machine (case_matrix case) else machine

let links_of_case (case : case) =
  if case.matrix then
    (* The simulated wire mirrors the calibrated pricing (latencies
       clamped to >= 1 cycle so every message still takes time). *)
    Links.matrix (Array.map (Array.map (max 1)) (case_matrix case))
  else Links.fixed (max 1 case.comm)

type outcome =
  | Passed of int
  | Failed of { case : case; reason : string; file : string option }

(* ------------------------------------------------------------------ *)
(* The oracle for one case                                             *)

let ( let* ) = Result.bind

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* Simulator and runtime must agree on the value of every (statement,
   iteration) instance, bit for bit — not just on the final memory. *)
let compare_instances ~sim ~rt =
  let sort l = List.sort (fun (a, _) (b, _) -> compare a b) l in
  let sim = sort sim and rt = sort rt in
  if List.length sim <> List.length rt then
    Error
      (Printf.sprintf "simulator computed %d instance(s), runtime %d"
         (List.length sim) (List.length rt))
  else
    List.fold_left2
      (fun acc ((s, i), v) ((s', i'), v') ->
        let* () = acc in
        if s <> s' || i <> i' then
          Error (Printf.sprintf "instance sets differ at (%d,%d) vs (%d,%d)" s i s' i')
        else if not (same_bits v v') then
          Error
            (Printf.sprintf "instance (%d,%d): simulator %h, runtime %h" s i v v')
        else Ok ())
      (Ok ()) sim rt

let check_case ?(fault = No_fault) ?(runtime = true) case =
  try
    let loop =
      if Ast.is_flat case.loop then case.loop else Mimd_loop_ir.If_convert.run case.loop
    in
    let graph = (Depend.analyze loop).Depend.graph in
    let machine = machine_of_case case in
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
    (* Value differential on the simulator... *)
    let sim = Value_exec.run ~loop ~program ~links:(links_of_case case) () in
    let* () =
      Result.map_error (( ^ ) "simulator vs interpreter: ")
        (Value_exec.check_against_sequential ~loop ~iterations:case.iterations sim)
    in
    if not runtime then Ok ()
    else begin
      (* ... and on real domains. *)
      let watchdog = Watchdog.config ~timeout:30.0 () in
      let rt = Exec_compiled.run ~watchdog ~loop ~program () in
      let* () =
        Result.map_error (( ^ ) "runtime vs interpreter: ")
          (Value_run.check_against_sequential ~loop ~iterations:case.iterations rt)
      in
      compare_instances ~sim:sim.Value_exec.instance_values
        ~rt:rt.Value_run.instance_values
    end
  with e -> Error ("exception: " ^ Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* The comm-opt oracle: optimized vs unoptimized, all executors        *)

(* The socket backend lives above this library in the dependency graph
   (mimd_dist -> mimd_server -> mimd_check), so the comm oracle reaches
   it through an injected hook; [mimdloop] installs it at startup, the
   same pattern as {!Validate.install_hooks}.  The hook runs the
   program on forked processes and returns its instance values. *)
let socket_backend :
    (loop:Ast.loop ->
    program:Mimd_codegen.Program.t ->
    (((int * int) * float) list, string) result)
    option
    ref =
  ref None

(* The domain runtime poisons fork (OCaml forbids forking once a domain
   exists), and the socket backend forks — so when one comm case needs
   both, the domain leg runs inside a forked child that reports the
   instance values of the base and the optimized program over a pipe
   and exits without returning to the harness.  The parent never
   creates a domain and stays fork-safe for the next case. *)
type instances = ((int * int) * float) list

let domain_instances_forked ~loop ~base ~opt =
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let result : (instances * instances, string) result =
      try
        let watchdog = Watchdog.config ~timeout:30.0 () in
        let run program =
          (Exec_compiled.run ~watchdog ~loop ~program ()).Value_run.instance_values
        in
        let base = run base in
        Ok (base, run opt)
      with e -> Error (Printexc.to_string e)
    in
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc result [];
    flush oc;
    Unix._exit 0
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let result =
      match (Marshal.from_channel ic : (instances * instances, string) result) with
      | result -> result
      | exception _ -> Error "domain helper child died before reporting"
    in
    In_channel.close ic;
    ignore (Unix.waitpid [] pid);
    result

let check_comm_case ?(fault = No_fault) ?(runtime = true) ?window case =
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
    let machine = machine_of_case case in
    let full = Full_sched.run ~graph ~machine ~iterations:case.iterations () in
    let names = Graph.name graph in
    let program = Mimd_codegen.From_schedule.run full.Full_sched.schedule in
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
        Result.map_error
          (( ^ ) "optimized program rejected: ")
          (Validate.error_of ~names (Validate.program opt))
      in
      let links = links_of_case case in
      let sim_base = Value_exec.run ~loop ~program ~links () in
      let sim_opt = Value_exec.run ~loop ~program:opt ~links () in
      let* () =
        Result.map_error
          (( ^ ) "optimized simulator vs interpreter: ")
          (Value_exec.check_against_sequential ~loop ~iterations:case.iterations sim_opt)
      in
      let* () =
        Result.map_error
          (( ^ ) "optimized vs unoptimized simulator: ")
          (compare_instances ~sim:sim_base.Value_exec.instance_values
             ~rt:sim_opt.Value_exec.instance_values)
      in
      if not runtime then Ok ()
      else begin
        (* Socket run first (it forks), then the domain runs in their
           own forked child — the parent must never create a domain.
           The domain leg runs the base program too, so this oracle's
           widened (fan-out) programs get compiled coverage with and
           without packed frames. *)
        let* () =
          match !socket_backend with
          | None -> Ok ()
          | Some run_sockets ->
            let* sock = run_sockets ~loop ~program:opt in
            Result.map_error
              (( ^ ) "optimized simulator vs socket runtime: ")
              (compare_instances ~sim:sim_opt.Value_exec.instance_values ~rt:sock)
        in
        let* dom_base, dom_opt = domain_instances_forked ~loop ~base:program ~opt in
        let* () =
          Result.map_error
            (( ^ ) "unoptimized simulator vs domain runtime: ")
            (compare_instances ~sim:sim_base.Value_exec.instance_values ~rt:dom_base)
        in
        Result.map_error
          (( ^ ) "optimized simulator vs domain runtime: ")
          (compare_instances ~sim:sim_opt.Value_exec.instance_values ~rt:dom_opt)
      end
  with e -> Error ("exception: " ^ Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Replayable counterexample files                                     *)

let oracle_name = function Pipeline -> "pipeline" | Comm -> "comm"

let render_case (case : case) =
  Format.asprintf
    "# mimd-check fuzz counterexample (replay: mimdloop check --replay <file>)@\n\
     # oracle: %s@\n\
     # processors: %d@\n\
     # comm: %d@\n\
     # iterations: %d@\n\
     %s%a@."
    (oracle_name case.oracle) case.processors case.comm case.iterations
    (if case.matrix then "# matrix: yes\n" else "")
    Ast.pp_loop case.loop

let sanitize_line s =
  String.map (function '\n' | '\r' -> ' ' | c -> c) s

let dump_case ?(name = "mimd-fuzz-counterexample.loop") ~dir ~reason case =
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
  (* [exec] names the retired compiled-vs-interpreted oracle, whose
     checks the comm oracle now carries. *)
  let oracle =
    match header "oracle" with
    | None | Some "pipeline" -> Pipeline
    | Some ("comm" | "exec") -> Comm
    | Some other -> failwith (Printf.sprintf "%s: unknown fuzz oracle %S" path other)
  in
  {
    loop = Parser.parse src;
    processors = int_header "processors" 2;
    comm = int_header "comm" 2;
    iterations = int_header "iterations" 10;
    oracle;
    matrix = List.mem "# matrix: yes" lines;
  }

(* ------------------------------------------------------------------ *)
(* The QCheck harness                                                  *)

(* Random flat loops, the shape of Random_loop.generate_loop: every
   statement writes offset 0 of one of a few arrays, reads use offsets
   in {-1, 0}, so dependence distances stay in the scheduler's {0, 1}.
   Operators exclude division to keep the float differential free of
   NaN/infinity plumbing. *)
let gen_case_for ?(matrix = false) oracle =
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
    (* The comm oracle wants fan-out: extra reads of earlier writers
       create transitive (diamond) dependence shapes a pure statement
       chain never produces — elision fodder for comm-opt, and
       pack-bearing programs for the compiled executor. *)
    let* body =
      match oracle with
      | Pipeline -> return body
      | Comm ->
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
                       ( Ast.Add,
                         rhs,
                         Ast.Ref { array = List.nth earlier j; offset = off } ))
            in
            widen (array :: earlier)
              (Ast.Assign { array; offset; rhs } :: acc)
              rest
          | stmt :: rest -> widen earlier (stmt :: acc) rest
        in
        widen [] [] body
    in
    let* processors = int_range 2 4 in
    let* comm = int_range 0 2 in
    let* iterations = int_range 4 14 in
    return
      {
        loop = { Ast.index = "i"; lo = "1"; hi = "n"; body };
        processors;
        comm;
        iterations;
        oracle;
        matrix;
      })

let print_case case =
  (* What QCheck prints for a (shrunk) counterexample — same format as
     the dumped file, so it can be pasted back and replayed. *)
  render_case case

let run cfg =
  (* QCheck2's integrated shrinking re-runs the property on ever
     smaller candidates and stops at a minimal failing one — so the
     last failure the property itself observes IS the shrunk case. *)
  let last_failure = ref None in
  let prop (case : case) =
    let result =
      match case.oracle with
      | Pipeline -> check_case ~fault:cfg.fault ~runtime:cfg.runtime case
      | Comm -> check_comm_case ~fault:cfg.fault ~runtime:cfg.runtime case
    in
    match result with
    | Ok () -> true
    | Error reason ->
      last_failure := Some (case, reason);
      false
  in
  let name =
    (match cfg.oracle with
    | Pipeline -> "mimd-check cross-layer fuzz"
    | Comm -> "mimd-check comm-opt differential fuzz")
    ^ if cfg.matrix then " (per-link matrix)" else ""
  in
  let cell =
    QCheck2.Test.make_cell ~name ~count:cfg.count ~print:print_case
      (gen_case_for ~matrix:cfg.matrix cfg.oracle) prop
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
              oracle = cfg.oracle;
              matrix = cfg.matrix;
            };
          reason = "fuzz failed without a recorded counterexample";
          file = None;
        }
    | Some (case, reason) ->
      let file =
        Option.map (fun dir -> dump_case ~dir ~reason case) cfg.out_dir
      in
      Failed { case; reason; file }

let describe = function
  | Passed n -> Printf.sprintf "fuzz: %d case(s) passed" n
  | Failed { case; reason; file } ->
    Printf.sprintf "fuzz: FAILED — %s\nshrunk counterexample:\n%s%s" reason
      (render_case case)
      (match file with
      | Some path -> Printf.sprintf "dumped to %s (replay: mimdloop check --replay %s)" path path
      | None -> "")
