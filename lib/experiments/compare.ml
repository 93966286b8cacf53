module Graph = Mimd_ddg.Graph
module Config = Mimd_machine.Config
module Schedule = Mimd_core.Schedule
module Full_sched = Mimd_core.Full_sched
module Doacross = Mimd_doacross.Doacross
module Reorder = Mimd_doacross.Reorder
module Dopipe = Mimd_doacross.Dopipe
module Links = Mimd_sim.Links
module Exec = Mimd_sim.Exec

type result = {
  label : string;
  iterations : int;
  sequential : int;
  ours : int;
  ours_sim : int;
  doacross : int;
  doacross_sim : int;
  dopipe : int option;
  ours_procs : int;
  doacross_procs : int;
  pattern_rate : float option;
  recurrence_bound : float;
}

let sp ~sequential ~parallel =
  float_of_int (sequential - parallel) /. float_of_int sequential *. 100.0

let ours_sp r = sp ~sequential:r.sequential ~parallel:r.ours
let ours_sim_sp r = sp ~sequential:r.sequential ~parallel:r.ours_sim
let doacross_sp r = sp ~sequential:r.sequential ~parallel:r.doacross
let doacross_sim_sp r = sp ~sequential:r.sequential ~parallel:r.doacross_sim

let simulate schedule links =
  let out = Exec.simulate_schedule ~schedule ~links () in
  out.Exec.makespan

let doacross_numbers ~graph ~machine ~iterations ~links =
  let doa = Reorder.best ~graph ~machine () in
  let analytic = Doacross.effective_makespan doa ~iterations in
  let sched = Doacross.effective_schedule doa ~iterations in
  let simulated = simulate sched links in
  (analytic, simulated)

let run ?label ?(iterations = 100) ?links ?(with_dopipe = false) ?strategy ~graph ~machine
    () =
  let label = match label with Some l -> l | None -> "loop" in
  let links =
    match links with Some l -> l | None -> Links.fixed machine.Config.comm_estimate
  in
  let sequential = Mimd_core.Metrics.sequential_time graph ~iterations in
  let full = Full_sched.run ?strategy ~graph ~machine ~iterations () in
  let ours = Full_sched.parallel_time full in
  let ours_sim = simulate full.Full_sched.schedule links in
  let doacross, doacross_sim = doacross_numbers ~graph ~machine ~iterations ~links in
  let dopipe =
    if with_dopipe then
      Some (Dopipe.makespan (Dopipe.analyze ~graph ~machine ()) ~iterations)
    else None
  in
  {
    label;
    iterations;
    sequential;
    ours;
    ours_sim;
    doacross;
    doacross_sim;
    dopipe;
    ours_procs = Full_sched.total_processors full;
    doacross_procs = machine.Config.processors;
    pattern_rate = Option.map Mimd_core.Pattern.rate full.Full_sched.pattern;
    recurrence_bound = Mimd_ddg.Reach.recurrence_bound graph;
  }

let cyclic_only ?label ?(iterations = 100) ?links ~graph ~machine () =
  let label = match label with Some l -> l | None -> "cyclic" in
  let links =
    match links with Some l -> l | None -> Links.fixed machine.Config.comm_estimate
  in
  let sequential = Mimd_core.Metrics.sequential_time graph ~iterations in
  let sched = Mimd_core.Cyclic_sched.schedule_iterations ~graph ~machine ~iterations () in
  let ours = Schedule.makespan sched in
  let ours_sim = simulate sched links in
  let doacross, doacross_sim = doacross_numbers ~graph ~machine ~iterations ~links in
  {
    label;
    iterations;
    sequential;
    ours;
    ours_sim;
    doacross;
    doacross_sim;
    dopipe = None;
    ours_procs = machine.Config.processors;
    doacross_procs = machine.Config.processors;
    pattern_rate = None;
    recurrence_bound = Mimd_ddg.Reach.recurrence_bound graph;
  }

let pp ppf r =
  Format.fprintf ppf
    "%s (N=%d): seq=%d | ours %d (Sp %.1f, sim %d -> %.1f) | doacross %d (Sp %.1f, sim %d -> %.1f)"
    r.label r.iterations r.sequential r.ours (ours_sp r) r.ours_sim (ours_sim_sp r)
    r.doacross (doacross_sp r) r.doacross_sim (doacross_sim_sp r)
