module Graph = Mimd_ddg.Graph
module Config = Mimd_machine.Config
module Full_sched = Mimd_core.Full_sched
module Pattern = Mimd_core.Pattern
module Ast = Mimd_loop_ir.Ast
module Depend = Mimd_loop_ir.Depend
module Value_run = Mimd_runtime.Value_run
module Exec_compiled = Mimd_runtime.Exec_compiled

type fault = No_fault | Hasten_dependent | Keep_extra_send

type transport = Unix_sockets | Tcp

type case = {
  loop : Ast.loop;
  processors : int;
  comm : int;
  iterations : int;
  window : int;
  transport : transport;
}

(* A dump without the [window] header replays with the window every
   case used before cases drew their own. *)
let make_case ~loop ~processors ~comm ~iterations =
  let window = 1 + (iterations mod 4) in
  { loop; processors; comm; iterations; window; transport = Unix_sockets }

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

(* The one injected hook: the socket backend lives above this library
   in the dependency graph (mimd_dist -> mimd_server -> mimd_check),
   so the oracle cannot call it; [mimdloop], which links both,
   installs it at startup.  The hook runs the program on a team of
   spawned processes and returns its instance table. *)
let socket_backend = ref None

type compiled = {
  full : Full_sched.t;
  program : Mimd_codegen.Program.t;
  optimized : (Mimd_codegen.Program.t * Mimd_codegen.Comm_opt.stats) option;
}

let compile ?(fault = No_fault) ?window ~graph ~machine ~iterations () =
  let audit f = Mimd_obs.Trace.span ~cat:"compile" "compile.validate" f in
  let program_ok (p : Mimd_codegen.Program.t) =
    audit (fun () -> Validate.error_of ~names:(Graph.name p.graph) (Validate.program p))
  in
  match Full_sched.run ~graph ~machine ~iterations () with
  | exception Mimd_core.Cyclic_sched.No_pattern m -> Error m
  | full -> (
    let sched =
      match fault with
      | No_fault | Keep_extra_send -> full.Full_sched.schedule
      | Hasten_dependent -> (
        match Validate.break_dependence full.Full_sched.schedule with
        | Some broken -> broken
        | None -> full.Full_sched.schedule (* nothing to break: vacuous case *))
    in
    (* Each stage is audited before the next one consumes it, so an
       injected (or real) schedule bug is reported without generating,
       let alone executing, programs from it. *)
    let* () =
      audit (fun () ->
          let names = Graph.name (Mimd_core.Schedule.graph sched) in
          let* () = Validate.error_of ~names (Validate.schedule sched) in
          match full.Full_sched.pattern with
          | None -> Ok ()
          | Some p -> Validate.error_of ~names:(Graph.name p.Pattern.graph) (Validate.pattern p))
    in
    let program = Mimd_codegen.From_schedule.run sched in
    let* () = program_ok program in
    match window with
    | None -> Ok { full; program; optimized = None }
    | Some window -> (
      let fault =
        match fault with
        | Keep_extra_send -> Some Mimd_codegen.Comm_opt.Keep_extra_send
        | No_fault | Hasten_dependent -> None
      in
      match Mimd_codegen.Comm_opt.run ~window ?fault program with
      | exception Failure m -> Error ("comm-opt self-check: " ^ m)
      | opt, stats ->
        (* The independent protocol check must accept every optimized
           program; under [Keep_extra_send] it must reject it. *)
        let* () = labelled "optimized program rejected: " (program_ok opt) in
        Ok { full; program; optimized = Some (opt, stats) }))

let check_case ?(fault = No_fault) ?(runtime = true) case =
  try
    let { Depend.loop; graph; _ } = Depend.analyze case.loop in
    let* () = Mimd_runtime.Lower.check_distances graph in
    let machine = Config.make ~processors:case.processors ~comm_estimate:case.comm in
    let* { program; optimized; _ } =
      compile ~fault ~window:case.window ~graph ~machine ~iterations:case.iterations ()
    in
    let opt = Option.fold ~none:program ~some:fst optimized in
    (* Value differential: every leg's instance table against the
       spec, bit for bit.  The inline legs run the lowered evaluator
       on this thread; the base one also checks the last-writer fold
       against the interpreter's final memory. *)
    let spec = Value_run.spec ~loop ~iterations:case.iterations in
    let against_spec label instances =
      labelled (label ^ " vs interpreter: ") (Value_run.check_instances ~spec instances)
    in
    let inline_base = Exec_compiled.run_inline ~loop ~program () in
    let* () = against_spec "inline base" inline_base.Value_run.instances in
    let* () =
      labelled "inline base final memory vs interpreter: "
        (Value_run.check_against_sequential ~loop ~iterations:case.iterations inline_base)
    in
    let* () =
      against_spec "inline comm-opted"
        (Exec_compiled.run_inline ~loop ~program:opt ()).Value_run.instances
    in
    if not runtime then Ok program
    else begin
      (* ... then on the socket backend and on real domains, base and
         optimized alike, so widened (fan-out) programs get compiled
         coverage with and without packed frames. *)
      let* () =
        match !socket_backend with
        | None -> Ok ()
        | Some run_sockets ->
          let* sock = run_sockets ~transport:case.transport ~loop ~program:opt in
          against_spec "sockets" sock
      in
      let domains program =
        (Exec_compiled.run ~timeout:30.0 ~loop ~program ()).Value_run.instances
      in
      let* () = against_spec "domains base" (domains program) in
      let* () = against_spec "domains opt" (domains opt) in
      Ok program
    end
  with e -> Error ("exception: " ^ Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Replayable counterexample files                                     *)

let transport_names = [ ("unix", Unix_sockets); ("tcp", Tcp) ]

let render_case (case : case) =
  Format.asprintf
    "# mimd-check fuzz counterexample (replay: mimdloop check --replay <file>)@\n\
     # processors: %d@\n\
     # comm: %d@\n\
     # iterations: %d@\n\
     # window: %d@\n\
     # transport: %s@\n\
     %a@."
    case.processors case.comm case.iterations case.window
    (fst (List.find (fun (_, t) -> t = case.transport) transport_names))
    Ast.pp_loop case.loop

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
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | src ->
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
    (* A header that is present must parse: a typo never replays a
       different case than the one dumped. *)
    let field key ~default ~expected parse =
      match header key with
      | None -> Ok default
      | Some v ->
        Option.to_result (parse v)
          ~none:(Printf.sprintf "%s: bad \"# %s: %s\" header (expected %s)" path key v expected)
    in
    let int_field key ~default ~min =
      field key ~default ~expected:(Printf.sprintf "an integer >= %d" min) (fun v ->
          Option.bind (int_of_string_opt v) (fun n -> if n >= min then Some n else None))
    in
    (* Files dumped before the oracles merged name the one they failed
       in; every such case replays through the one oracle, which makes
       all of their checks.  Files dumped while cases could be priced
       with a per-link matrix say so; that machine no longer exists,
       and replaying the loop on the uniform one would check a
       different case. *)
    match (header "oracle", header "matrix") with
    | Some other, _ when not (List.mem other [ "pipeline"; "comm"; "exec" ]) ->
      Error (Printf.sprintf "%s: unknown fuzz oracle %S" path other)
    | _, Some v ->
      Error
        (Printf.sprintf
           "%s: \"# matrix: %s\" header: per-link matrix cases are no longer supported"
           path v)
    | _ ->
      let* processors = int_field "processors" ~default:2 ~min:1 in
      let* comm = int_field "comm" ~default:2 ~min:0 in
      let* iterations = int_field "iterations" ~default:10 ~min:1 in
      let* a = Result.map_error (Printf.sprintf "%s: %s" path) (Depend.of_source src) in
      let case = make_case ~loop:a.Depend.loop ~processors ~comm ~iterations in
      let* window = int_field "window" ~default:case.window ~min:0 in
      let* transport =
        field "transport" ~default:case.transport ~expected:"unix or tcp" (fun v ->
            List.assoc_opt v transport_names)
      in
      Ok { case with window; transport }

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
    (* One case in five runs long enough for steady-state traffic to
       pile up on the links. *)
    let* iterations = frequency [ (4, int_range 4 14); (1, int_range 100 120) ] in
    let* window = int_range 0 6 in
    let* transport = oneofl [ Unix_sockets; Tcp ] in
    let loop = { Ast.index = "i"; lo = "1"; hi = "n"; body } in
    return { loop; processors; comm; iterations; window; transport })

let run cfg =
  (* QCheck2's integrated shrinking re-runs the property on ever
     smaller candidates and stops at a minimal failing one — so the
     last failure the property itself observes IS the shrunk case.
     The property never raises, so the run failed iff it recorded
     one. *)
  let last_failure = ref None in
  let prop (case : case) =
    match check_case ~fault:cfg.fault ~runtime:cfg.runtime case with
    | Ok _ -> true
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
  ignore (QCheck2.Test.check_cell ~rand:(Random.State.make [| cfg.seed |]) cell);
  match !last_failure with
  | None -> Passed cfg.count
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
