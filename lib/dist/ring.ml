(* Consistent hashing for the serve fleet: each worker owns [vnodes]
   points on a 2^63 ring; a key lands on the first point clockwise
   from its own hash.  Virtual nodes smooth the split (~1/n per worker
   at 64); when a worker dies its keys spill to the next
   live point, and every other worker's keys stay put — which is the
   whole reason this beats [hash mod n] for a cache-affine fleet. *)

type t = { workers : int; points : (int64 * int) array }

(* First 8 bytes of MD5, as a non-negative int64: stable across runs
   and processes (Hashtbl.hash is not guaranteed to be). *)
let hash_point s =
  let d = Digest.string s in
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code d.[i]))
  done;
  Int64.logand !v Int64.max_int

let vnodes = 64

let create workers =
  if workers < 1 then invalid_arg "Ring.create: workers < 1";
  let points = Array.make (workers * vnodes) (0L, 0) in
  for w = 0 to workers - 1 do
    for v = 0 to vnodes - 1 do
      points.((w * vnodes) + v) <- (hash_point (Printf.sprintf "worker-%d/vnode-%d" w v), w)
    done
  done;
  Array.sort compare points;
  { workers; points }

let workers t = t.workers

(* Index of the first point with hash >= h, wrapping. *)
let successor t h =
  let n = Array.length t.points in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if fst t.points.(mid) < h then lo := mid + 1 else hi := mid
  done;
  if !lo = n then 0 else !lo

let shard t ~key = snd t.points.(successor t (hash_point key))

let lookup t ~key ~alive =
  let n = Array.length t.points in
  let start = successor t (hash_point key) in
  let rec walk i seen =
    if i >= n + start then None
    else
      let w = snd t.points.(i mod n) in
      if alive w then Some w
      else if List.mem w seen then walk (i + 1) seen
      else walk (i + 1) (w :: seen)
  in
  walk start []
