(* Workload inputs, owned by the benchmark.  Value recipes follow
   bench/main.ml's [inputs_for] (the paper's "different inputs" from each
   function's non-special domain), drawn from {!Rng} streams and rounded
   into the target format.  Ranges are clipped per format so that under
   1% of the inputs land in a special-case region. *)

let batch_size = 1024

type recipe =
  | Log of int * int  (** (1+u) * 2^e, e uniform in [lo, hi] *)
  | Sym of float  (** +-u * a *)
  | Signed_log of int * int  (** +-(1+u) * 2^e, e uniform in [lo, hi] *)
  | Trig
      (** +-2^t with t uniform: 7/8 in [-12, 8), the table regime; 1/8
          in [8, 100], the Payne-Hanek regime *)

(** Recipe for one function on one format (format names as in
    [Funcs.Specs]). *)
let recipe ~tname fname =
  match (tname, fname) with
  | "float16", ("ln" | "log2" | "log10") -> Log (-14, 14)
  | _, ("ln" | "log2" | "log10") -> Log (-30, 29)
  | _, ("exp" | "sinh" | "cosh") -> Sym 80.0
  | "float16", "exp2" -> Sym 15.0
  | "posit32", "exp2" -> Sym 100.0
  | _, "exp2" -> Sym 120.0
  | _, "exp10" -> Sym 35.0
  | _, ("sinpi" | "cospi") -> Signed_log (-10, 9)
  | _, ("sin" | "cos" | "tan") -> Trig
  | _ -> invalid_arg ("Inputs.recipe: no recipe for " ^ tname ^ " " ^ fname)

let signed rng x = if Rng.int rng 2 = 0 then x else -.x

let value rng = function
  | Log (lo, hi) ->
      let u = Rng.float rng in
      Float.ldexp (1.0 +. u) (lo + Rng.int rng (hi - lo + 1))
  | Sym a -> signed rng (Rng.float rng *. a)
  | Signed_log (lo, hi) ->
      let u = Rng.float rng in
      signed rng (Float.ldexp (1.0 +. u) (lo + Rng.int rng (hi - lo + 1)))
  | Trig ->
      let t =
        if Rng.int rng 8 < 7 then -12.0 +. (20.0 *. Rng.float rng)
        else 8.0 +. (92.0 *. Rng.float rng)
      in
      signed rng (Float.pow 2.0 t)

(** [batch (module T) ~seed ~label r] is [batch_size] patterns of [T]
    drawn from recipe [r] on the stream (seed, label). *)
let batch (module T : Fp.Representation.S) ~seed ~label r =
  let rng = Rng.create ~seed ~label in
  Array.init batch_size (fun _ -> T.of_double (value rng r))

(* float32 edge patterns: signed zeros, infinities, NaNs (quiet,
   signalling, negative, all-ones payload), subnormal and normal limits,
   the largest finite values, 1 and its neighbours, the exp/exp2
   overflow and underflow thresholds, sinpi's integers and half-integers
   up to 2^23 (where every float32 is an integer), the tiny-input snaps,
   and huge arguments. *)
let edge_pool_f32 =
  let pos =
    [|
      0x00000000; 0x7f800000; 0x7fc00000; 0x7f800001; 0x7fffffff; 0x00000001; 0x007fffff;
      0x00800000; 0x7f7fffff; 0x3f800000; 0x3f800001; 0x3f7fffff; 0x40000000; 0x3f000000;
      0x43000000; 0x42ffffff; 0x43160000; 0x43150000; 0x42b17218; 0x42cff1b5; 0x421a209b;
      0x40400000; 0x3fc00000; 0x4b000000; 0x4affffff; 0x4b800000; 0x33800000; 0x32000000;
      0x30800000; 0x5f800000; 0x71800000; 0x7149f2ca;
    |]
  in
  Array.append pos (Array.map (fun p -> p lor 0x80000000) pos)

(** Half raw uniform 32-bit patterns, half edge patterns moved by up to
    two ulps either way. *)
let edge_batch_f32 ~seed ~label =
  let rng = Rng.create ~seed ~label in
  let np = Array.length edge_pool_f32 in
  Array.init batch_size (fun _ ->
      if Rng.int rng 2 = 0 then Rng.bits32 rng
      else (edge_pool_f32.(Rng.int rng np) + Rng.int rng 5 - 2) land 0xFFFF_FFFF)

(* The certification lattice: pattern (offset + i * 16381) mod 2^32 for
   i < 2^18, the offset drawn from the seed.  Points are visited in an
   interleaved order: every aligned run of [lattice_chunk] consecutive
   points is an even sample of the whole 32-bit space, so chunks cost
   alike whatever the offset, and so does every [lattice_block]-point
   block (a whole number of chunks). *)
let lattice_size = 1 lsl 18
let lattice_stride = 16381
let lattice_chunk = 256
let lattice_block = 1024

let lattice_offset ~seed = Rng.bits32 (Rng.create ~seed ~label:"lattice")

let lattice_point ~offset j =
  let j = j mod lattice_size in
  let i = ((j mod lattice_chunk) * (lattice_size / lattice_chunk)) + (j / lattice_chunk) in
  (offset + (i * lattice_stride)) land 0xFFFF_FFFF
