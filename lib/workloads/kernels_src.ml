type t = { name : string; description : string; source : string; uniform_cost : bool }

let ll1_hydro () =
  {
    name = "ll1-hydro";
    description = "Livermore 1: hydro fragment (DOALL control case)";
    source =
      "for k = 1 to n {\n\
      \  X[k] = q + Y[k] * (r * Z[k] + t * W[k]);\n\
       }\n";
    uniform_cost = false;
  }

let ll5_tridiag () =
  {
    name = "ll5-tridiag";
    description = "Livermore 5: tri-diagonal elimination, below diagonal";
    source = "for i = 1 to n {\n  X[i] = Z[i] * (Y[i] - X[i-1]);\n}\n";
    uniform_cost = false;
  }

let ll11_first_sum () =
  {
    name = "ll11-first-sum";
    description = "Livermore 11: first sum (prefix sum)";
    source = "for k = 1 to n {\n  X[k] = X[k-1] + Y[k];\n}\n";
    uniform_cost = false;
  }

let ll12_first_diff () =
  {
    name = "ll12-first-diff";
    description = "Livermore 12: first difference (DOALL with an anti dependence)";
    source = "for k = 1 to n {\n  X[k] = Y[k+1] - Y[k];\n}\n";
    uniform_cost = false;
  }

let horner () =
  {
    name = "horner";
    description = "Horner's rule over a coefficient stream";
    source = "for i = 1 to n {\n  P[i] = P[i-1] * X0 + C[i];\n}\n";
    uniform_cost = false;
  }

let newton () =
  {
    name = "newton";
    description = "Newton square-root iteration along a stream";
    source =
      "for i = 1 to n {\n\
      \  X[i] = (X[i-1] + A[i-1] / X[i-1]) / 2;\n\
      \  R[i] = X[i] * X[i] - A[i-1];\n\
       }\n";
    uniform_cost = false;
  }

let exp_smooth () =
  {
    name = "exp-smooth";
    description = "Exponential smoothing with a data-dependent reset (if-converted)";
    source =
      "for i = 1 to n {\n\
      \  E[i] = E[i-1] + alpha * (V[i-1] - E[i-1]);\n\
      \  if (E[i] - limit) { E[i] = limit; } else { O[i] = E[i]; }\n\
       }\n";
    uniform_cost = false;
  }

let state_space2 () =
  {
    name = "state-space2";
    description = "Two-state linear system x' = Ax + Bu";
    source =
      "for i = 1 to n {\n\
      \  X1[i] = a11 * X1[i-1] + a12 * X2[i-1] + b1 * U[i-1];\n\
      \  X2[i] = a21 * X1[i-1] + a22 * X2[i-1] + b2 * U[i-1];\n\
      \  Y[i] = X1[i] + X2[i];\n\
       }\n";
    uniform_cost = false;
  }

let all () =
  [
    ll1_hydro ();
    ll5_tridiag ();
    ll11_first_sum ();
    ll12_first_diff ();
    horner ();
    newton ();
    exp_smooth ();
    state_space2 ();
  ]

let analyze ?(lower = false) t =
  let cost =
    if t.uniform_cost then Mimd_loop_ir.Cost.uniform else Mimd_loop_ir.Cost.weighted
  in
  if lower then (Mimd_loop_ir.Op_graph.run_string ~cost t.source).Mimd_loop_ir.Op_graph.graph
  else (Mimd_loop_ir.Depend.analyze_string ~cost t.source).Mimd_loop_ir.Depend.graph
