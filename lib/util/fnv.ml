let basis = 0x3bf29ce484222325
let prime = 0x100000001b3
let mix h v = (h lxor (v land max_int)) * prime land max_int

let digest feed =
  let h = ref basis in
  feed (fun v -> h := mix !h v);
  Printf.sprintf "%016x" !h
