module Program = Mimd_codegen.Program
module Graph = Mimd_ddg.Graph

exception Deadlock of string

type event = Program.event = { time : int; proc : int; instr : Program.instr }

type outcome = Program.outcome = {
  makespan : int;
  proc_finish : int array;
  messages : int;
  comm_cycles : int;
  busy_cycles : int;
  trace : event list;
  steps : int;
}

let run ?record ~program ~links () =
  Mimd_obs.Trace.span ~cat:"sim" "sim.execute" @@ fun () ->
  let graph = program.Program.graph in
  match Program.simulate ?record ~latency:(Links.sample links) program with
  | Ok out -> out
  | Error (Program.Stuck { blocked; _ }) ->
    blocked
    |> List.map (fun (j, instr) ->
           match instr with
           | Program.Recv { tag; src } | Program.Recv_pack { tags = tag :: _; src } ->
             Printf.sprintf "PE%d waits for %s[%d] from PE%d" j (Graph.name graph tag.node)
               tag.iter src
           | _ -> Printf.sprintf "PE%d" j)
    |> String.concat "; "
    |> fun stuck -> raise (Deadlock stuck)
  | Error f ->
    failwith (Format.asprintf "Exec.run: %a" (Program.pp_failure ~names:(Graph.name graph)) f)

let simulate_schedule ?record ~schedule ~links () =
  let program = Mimd_codegen.From_schedule.run schedule in
  run ?record ~program ~links ()
