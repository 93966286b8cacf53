open Helpers
module Prng = Mimd_util.Prng
module Stats = Mimd_util.Stats
module Tablefmt = Mimd_util.Tablefmt

let test_prng_determinism () =
  let a = Prng.create ~seed:42 and b = Prng.create ~seed:42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Prng.next_int64 a = Prng.next_int64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create ~seed:1 and b = Prng.create ~seed:2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 a = Prng.next_int64 b then incr same
  done;
  check_bool "streams differ" true (!same < 4)

let test_prng_int_bounds () =
  let rng = Prng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 10 in
    check_bool "in [0,10)" true (x >= 0 && x < 10)
  done

let test_prng_int_covers () =
  let rng = Prng.create ~seed:9 in
  let seen = Array.make 5 false in
  for _ = 1 to 200 do
    seen.(Prng.int rng 5) <- true
  done;
  check_bool "all values hit" true (Array.for_all Fun.id seen)

let test_prng_int_in () =
  let rng = Prng.create ~seed:3 in
  for _ = 1 to 500 do
    let x = Prng.int_in rng ~lo:2 ~hi:4 in
    check_bool "in [2,4]" true (x >= 2 && x <= 4)
  done

let test_prng_int_in_degenerate () =
  let rng = Prng.create ~seed:3 in
  check_int "single-point range" 5 (Prng.int_in rng ~lo:5 ~hi:5)

let test_prng_invalid_args () =
  let rng = Prng.create ~seed:0 in
  Alcotest.check_raises "int 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int rng 0));
  Alcotest.check_raises "hi<lo" (Invalid_argument "Prng.int_in: hi < lo") (fun () ->
      ignore (Prng.int_in rng ~lo:3 ~hi:2))

let test_prng_float_bounds () =
  let rng = Prng.create ~seed:11 in
  for _ = 1 to 1000 do
    let x = Prng.float rng 1.0 in
    check_bool "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_prng_bool_balance () =
  let rng = Prng.create ~seed:13 in
  let trues = ref 0 in
  for _ = 1 to 1000 do
    if Prng.bool rng then incr trues
  done;
  check_bool "roughly balanced" true (!trues > 400 && !trues < 600)

let test_prng_copy_independent () =
  let a = Prng.create ~seed:5 in
  ignore (Prng.next_int64 a);
  let b = Prng.copy a in
  let xa = Prng.next_int64 a in
  let xb = Prng.next_int64 b in
  check_bool "copy continues the stream" true (xa = xb)

let test_prng_split_differs () =
  let a = Prng.create ~seed:5 in
  let b = Prng.split a in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Prng.next_int64 a = Prng.next_int64 b then incr same
  done;
  check_bool "split stream is distinct" true (!same < 4)

let test_prng_shuffle_permutes () =
  let rng = Prng.create ~seed:17 in
  let a = Array.init 20 Fun.id in
  Prng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check_bool "is a permutation" true (sorted = Array.init 20 Fun.id);
  check_bool "actually moved something" true (a <> Array.init 20 Fun.id)

let test_prng_pick () =
  let rng = Prng.create ~seed:19 in
  for _ = 1 to 100 do
    let x = Prng.pick rng [| 1; 2; 3 |] in
    check_bool "member" true (List.mem x [ 1; 2; 3 ])
  done

let test_stats_mean () =
  Alcotest.(check (float 1e-9)) "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 0.0 (Stats.mean [])

let test_stats_variance () =
  Alcotest.(check (float 1e-9)) "variance" 2.0 (Stats.variance [ 1.0; 2.0; 3.0; 4.0; 5.0 ]);
  Alcotest.(check (float 1e-9)) "singleton" 0.0 (Stats.variance [ 7.0 ])

let test_stats_stddev () =
  Alcotest.(check (float 1e-9)) "stddev" (sqrt 2.0) (Stats.stddev [ 1.0; 2.0; 3.0; 4.0; 5.0 ])

let test_stats_min_max () =
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.minimum [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "max" 3.0 (Stats.maximum [ 3.0; 1.0; 2.0 ])

let test_stats_median () =
  Alcotest.(check (float 1e-9)) "odd" 2.0 (Stats.median [ 3.0; 1.0; 2.0 ]);
  Alcotest.(check (float 1e-9)) "even" 2.5 (Stats.median [ 4.0; 1.0; 2.0; 3.0 ])

let test_stats_percentile () =
  let xs = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 1e-9)) "p50" 50.0 (Stats.percentile 50.0 xs);
  Alcotest.(check (float 1e-9)) "p100" 100.0 (Stats.percentile 100.0 xs)

(* Nearest-rank boundary semantics documented in stats.mli: every
   result is an actual sample, ranks clamp to [1, n]. *)
let test_stats_percentile_boundaries () =
  (* n = 1: every percentile is the sole element. *)
  List.iter
    (fun p -> Alcotest.(check (float 1e-9)) (Printf.sprintf "n=1 p%g" p) 42.0 (Stats.percentile p [ 42.0 ]))
    [ 0.0; 50.0; 95.0; 99.0; 100.0 ];
  (* n = 2: rank ceil(p/100 * 2) — p50 hits the first element (and so
     disagrees with the averaging median), anything above picks the
     second. *)
  let two = [ 10.0; 20.0 ] in
  Alcotest.(check (float 1e-9)) "n=2 p0" 10.0 (Stats.percentile 0.0 two);
  Alcotest.(check (float 1e-9)) "n=2 p50" 10.0 (Stats.percentile 50.0 two);
  Alcotest.(check (float 1e-9)) "n=2 p51" 20.0 (Stats.percentile 51.0 two);
  Alcotest.(check (float 1e-9)) "n=2 p95" 20.0 (Stats.percentile 95.0 two);
  Alcotest.(check (float 1e-9)) "n=2 p99" 20.0 (Stats.percentile 99.0 two);
  Alcotest.(check (float 1e-9)) "n=2 median differs" 15.0 (Stats.median two);
  (* Odd length: p50 lands on the middle element, agreeing with
     median; p95/p99 clamp to the maximum.  Input order must not
     matter. *)
  let odd = [ 5.0; 1.0; 3.0; 2.0; 4.0 ] in
  Alcotest.(check (float 1e-9)) "n=5 p50 = median" (Stats.median odd) (Stats.percentile 50.0 odd);
  Alcotest.(check (float 1e-9)) "n=5 p50" 3.0 (Stats.percentile 50.0 odd);
  Alcotest.(check (float 1e-9)) "n=5 p95" 5.0 (Stats.percentile 95.0 odd);
  Alcotest.(check (float 1e-9)) "n=5 p99" 5.0 (Stats.percentile 99.0 odd);
  Alcotest.(check (float 1e-9)) "n=5 p20 first element" 1.0 (Stats.percentile 20.0 odd);
  Alcotest.(check (float 1e-9)) "n=5 p21 second element" 2.0 (Stats.percentile 21.0 odd);
  (* Errors. *)
  Alcotest.check_raises "empty" (Invalid_argument "Stats.percentile: empty") (fun () ->
      ignore (Stats.percentile 50.0 []));
  Alcotest.check_raises "p out of range" (Invalid_argument "Stats.percentile: p out of range")
    (fun () -> ignore (Stats.percentile 101.0 [ 1.0 ]))

let test_stats_geometric_mean () =
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geometric_mean [ 1.0; 2.0; 4.0 ])

let test_stats_ratio () =
  Alcotest.(check (float 1e-9)) "ratio" 2.0 (Stats.ratio_of_means [ 4.0 ] [ 2.0 ]);
  check_bool "nan on zero" true (Float.is_nan (Stats.ratio_of_means [ 1.0 ] [ 0.0 ]))

let test_table_renders () =
  let t = Tablefmt.create ~header:[ "a"; "bb" ] () in
  Tablefmt.add_row t [ "1"; "2" ];
  Tablefmt.add_rule t;
  Tablefmt.add_row t [ "333"; "4" ];
  let s = Tablefmt.render t in
  check_bool "has header" true (String.length s > 0);
  check_bool "contains 333" true
    (String.split_on_char '\n' s |> List.exists (fun l -> String.length l > 0 && String.index_opt l '3' <> None))

let test_table_arity () =
  let t = Tablefmt.create ~header:[ "a"; "b" ] () in
  Alcotest.check_raises "arity" (Invalid_argument "Tablefmt.add_row: arity") (fun () ->
      Tablefmt.add_row t [ "1" ])

let test_table_alignment () =
  let t = Tablefmt.create ~aligns:[ Tablefmt.Left; Tablefmt.Right ] ~header:[ "x"; "y" ] () in
  Tablefmt.add_row t [ "ab"; "cd" ];
  check_bool "renders" true (String.length (Tablefmt.render t) > 0)

let test_cell_float () =
  check_string "one decimal" "3.1" (Tablefmt.cell_float 3.14159);
  check_string "four decimals" "3.1416" (Tablefmt.cell_float ~decimals:4 3.14159)

(* A span row fills the columns after its cells; a text longer than
   those columns widens the last one, so every line keeps one width. *)
let test_table_span () =
  let t = Tablefmt.create ~header:[ "a"; "b"; "c" ] () in
  Tablefmt.add_row t [ "1"; "2"; "3" ];
  Tablefmt.add_span_row t [ "4" ] "fits";
  Tablefmt.add_span_row t [ "5" ] "longer than b and c";
  let lines = List.filter (( <> ) "") (String.split_on_char '\n' (Tablefmt.render t)) in
  check_bool "one width" true
    (List.for_all (fun l -> String.length l = String.length (List.hd lines)) lines);
  check_bool "span text" true (List.mem "| 5 | longer than b and c |" lines);
  check_bool "short span padded" true (List.mem "| 4 | fits                |" lines);
  Alcotest.check_raises "no column left" (Invalid_argument "Tablefmt.add_span_row: arity")
    (fun () -> Tablefmt.add_span_row t [ "1"; "2"; "3" ] "x")

let suite =
  [
    Alcotest.test_case "prng: determinism" `Quick test_prng_determinism;
    Alcotest.test_case "prng: seed sensitivity" `Quick test_prng_seed_sensitivity;
    Alcotest.test_case "prng: int bounds" `Quick test_prng_int_bounds;
    Alcotest.test_case "prng: int covers range" `Quick test_prng_int_covers;
    Alcotest.test_case "prng: int_in bounds" `Quick test_prng_int_in;
    Alcotest.test_case "prng: int_in degenerate" `Quick test_prng_int_in_degenerate;
    Alcotest.test_case "prng: invalid args" `Quick test_prng_invalid_args;
    Alcotest.test_case "prng: float bounds" `Quick test_prng_float_bounds;
    Alcotest.test_case "prng: bool balance" `Quick test_prng_bool_balance;
    Alcotest.test_case "prng: copy independence" `Quick test_prng_copy_independent;
    Alcotest.test_case "prng: split differs" `Quick test_prng_split_differs;
    Alcotest.test_case "prng: shuffle permutes" `Quick test_prng_shuffle_permutes;
    Alcotest.test_case "prng: pick membership" `Quick test_prng_pick;
    Alcotest.test_case "stats: mean" `Quick test_stats_mean;
    Alcotest.test_case "stats: variance" `Quick test_stats_variance;
    Alcotest.test_case "stats: stddev" `Quick test_stats_stddev;
    Alcotest.test_case "stats: min/max" `Quick test_stats_min_max;
    Alcotest.test_case "stats: median" `Quick test_stats_median;
    Alcotest.test_case "stats: percentile" `Quick test_stats_percentile;
    Alcotest.test_case "stats: percentile boundaries" `Quick test_stats_percentile_boundaries;
    Alcotest.test_case "stats: geometric mean" `Quick test_stats_geometric_mean;
    Alcotest.test_case "stats: ratio of means" `Quick test_stats_ratio;
    Alcotest.test_case "table: renders" `Quick test_table_renders;
    Alcotest.test_case "table: arity check" `Quick test_table_arity;
    Alcotest.test_case "table: alignment" `Quick test_table_alignment;
    Alcotest.test_case "table: cell_float" `Quick test_cell_float;
    Alcotest.test_case "table: span rows" `Quick test_table_span;
  ]
