(* Respawn supervision policy, shared by the runner (whole-run retry)
   and the router fleet (per-worker respawn): a per-worker budget plus
   a fleet-wide storm circuit breaker.

   The breaker exists because the most dangerous failure mode of any
   supervisor is the respawn storm: a worker that dies *because of its
   environment* (bad cache dir, port squatter, OOM) dies again
   immediately after every respawn, and an unbounded supervisor turns
   one fault into a fork bomb.  A sliding window over recent respawn
   instants trips the breaker once the rate is absurd; a tripped
   breaker stays tripped (operator intervention is the reset — the
   condition it detects does not fix itself). *)

type t = {
  window : float;  (* seconds the sliding window spans *)
  limit : int;  (* respawns inside the window that trip it *)
  mutable recent : float list;  (* instants, newest first *)
  mutable tripped : bool;
  mutable total : int;
}

let create ?(window = 10.0) ~limit () =
  if limit < 1 then invalid_arg "Respawn.create: limit < 1";
  if window <= 0.0 then invalid_arg "Respawn.create: window <= 0";
  { window; limit; recent = []; tripped = false; total = 0 }

let copy t = { t with recent = t.recent }
let limit t = t.limit
let window t = t.window
let total t = t.total
let tripped t = t.tripped

let prune t ~now = t.recent <- List.filter (fun i -> now -. i <= t.window) t.recent

(* Record one respawn.  Returns [false] — and trips the breaker — when
   this respawn pushes the windowed count past the limit; the caller
   must then stop respawning.  A tripped breaker refuses everything. *)
let record ?now t =
  let now = match now with Some n -> n | None -> Unix.gettimeofday () in
  if t.tripped then false
  else begin
    prune t ~now;
    if List.length t.recent >= t.limit then begin
      t.tripped <- true;
      false
    end
    else begin
      t.recent <- now :: t.recent;
      t.total <- t.total + 1;
      true
    end
  end
