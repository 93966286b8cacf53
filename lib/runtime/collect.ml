type 'f event = Report of int | Own of int * 'f | Symptom of int * 'f | Quiet
type 'f verdict = Done | Failed of 'f | Stalled of int list
type 'f next = Wait of { pending : int list; until : int } | End of 'f verdict

type 'f t = {
  bound : int;
  pending : int list;
  failures : (bool * int * 'f) list;  (* (symptom?, PE, failure) *)
  since : int;  (* the last event, or the first failure once there is one *)
  quiet : bool;
}

let start ~procs ~timeout ~now =
  (* At most 10^9 s, so that a deadline fits in an int. *)
  let bound = int_of_float (Float.min timeout 1e9 *. 1e9) in
  { bound; pending = List.init procs Fun.id; failures = []; since = now; quiet = false }

let step t ~now event =
  let stop j failure =
    if not (List.mem j t.pending) then t
    else
      {
        t with
        pending = List.filter (( <> ) j) t.pending;
        failures = Option.to_list failure @ t.failures;
        since = (match t.failures with [] -> now | _ :: _ -> t.since);
      }
  in
  match event with
  | Report j -> stop j None
  | Own (j, f) -> stop j (Some (false, j, f))
  | Symptom (j, f) -> stop j (Some (true, j, f))
  | Quiet -> { t with quiet = t.quiet || now - t.since >= t.bound }

let next t =
  match t.pending with
  | _ :: _ when not t.quiet -> Wait { pending = t.pending; until = t.since + t.bound }
  | pending -> (
    let by_rank (s, j, _) (s', j', _) = compare (s, j) (s', j') in
    match List.sort by_rank t.failures with
    | (_, _, f) :: _ -> End (Failed f)
    | [] -> End (if pending = [] then Done else Stalled pending))

let run ~procs ~timeout ~now ~wait =
  let rec go t =
    match next t with
    | End verdict -> verdict
    | Wait { pending; until } -> (
      let events = wait pending (Float.max 0.0 (float_of_int (until - now ())) *. 1e-9) in
      let now = now () in
      match events with
      | [] -> go (step t ~now Quiet)
      | events -> go (List.fold_left (fun t e -> step t ~now e) t events))
  in
  go (start ~procs ~timeout ~now:(now ()))
