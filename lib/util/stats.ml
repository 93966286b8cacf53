let mean = function
  | [] -> 0.0
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let variance xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ ->
    let m = mean xs in
    let sq = List.fold_left (fun acc x -> acc +. ((x -. m) *. (x -. m))) 0.0 xs in
    sq /. float_of_int (List.length xs)

let stddev xs = sqrt (variance xs)

let minimum = function
  | [] -> invalid_arg "Stats.minimum: empty"
  | x :: xs -> List.fold_left min x xs

let maximum = function
  | [] -> invalid_arg "Stats.maximum: empty"
  | x :: xs -> List.fold_left max x xs

let sorted xs = List.sort compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: empty"
  | ys ->
    let a = Array.of_list ys in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let percentile p xs =
  if p < 0.0 || p > 100.0 then invalid_arg "Stats.percentile: p out of range";
  match sorted xs with
  | [] -> invalid_arg "Stats.percentile: empty"
  | ys ->
    let a = Array.of_list ys in
    let n = Array.length a in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let geometric_mean = function
  | [] -> 0.0
  | xs ->
    let logs = List.fold_left (fun acc x -> acc +. log x) 0.0 xs in
    exp (logs /. float_of_int (List.length xs))

let ratio_of_means xs ys =
  let my = mean ys in
  if my = 0.0 then nan else mean xs /. my
