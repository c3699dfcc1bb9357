(* splitmix64 streams, one per (seed, label).  Every workload input is
   drawn from a stream keyed by the run's --seed and a label naming the
   table and batch, so the same seed replays byte-identical inputs and
   no library function takes part in drawing them. *)

type t = { mutable s : int64 }

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* FNV-1a over the label, folded into the seed before mixing. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L) s;
  !h

let create ~seed ~label = { s = mix (Int64.logxor (mix (Int64.of_int seed)) (fnv64 label)) }

let next t =
  t.s <- Int64.add t.s 0x9E3779B97F4A7C15L;
  mix t.s

(** Uniform 32-bit pattern. *)
let bits32 t = Int64.to_int (Int64.shift_right_logical (next t) 32)

(** Uniform float in [0, 1) with 53 random bits. *)
let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53

(** Uniform int in [0, n), n < 2^30. *)
let int t n = bits32 t mod n
