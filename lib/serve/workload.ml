(* Seedable workload mixes for bin/serve_cli replay.

   Three mixes:
   - [Uniform]: uniformly random *fast-path* patterns (specials and
     out-of-domain regions rejected), the steady-state serving load;
   - [Hardcase]: half raw random patterns (any bits — NaNs, infinities
     and saturated regions included), half drawn from a pool of the
     format's edge patterns, stressing the fallback path;
   - [Subnormal]: 80% patterns with a zero exponent field (signed
     subnormals and zeros), 20% raw random, stressing the decode and
     special probes.

   Generation is a pure function of (plan identity, mix, seed, n):
   splitmix64 drives everything, so recorded workloads replay exactly. *)

module K = Kernel

type mix = Uniform | Hardcase | Subnormal

let mix_to_string = function
  | Uniform -> "uniform"
  | Hardcase -> "hardcase"
  | Subnormal -> "subnormal"

let mix_of_string = function
  | "uniform" -> Some Uniform
  | "hardcase" -> Some Hardcase
  | "subnormal" -> Some Subnormal
  | _ -> None

(* splitmix64: the standard 64-bit mix, tiny and splittable by seed. *)
let sm_next st =
  st := Int64.add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let rand_bits st mask = Int64.to_int (sm_next st) land mask

(* Edge-pattern pool for the hardcase mix: NaN, the infinities, both
   zeros, both largest-finite values, the smallest subnormal of each
   sign, 1.0 (one_snap's neighborhood), and a huge-argument row — a
   finite value halfway up the exponent range, both signs.  For the
   trig family that row lands deep in the range-reduction regime
   (sinpi/cospi integer collapse, sin/cos/tan Payne–Hanek fallback);
   for the exp family it saturates, and for logs it is an ordinary
   fast-path input. *)
let edge_pool (p : K.plan) =
  let one = p.K.o_bias lsl p.K.o_mb in
  let huge = ((p.K.o_bias + (p.K.o_emax / 2)) lsl p.K.o_mb) lor (p.K.o_mmask lsr 1) in
  [|
    p.K.o_nan;
    p.K.o_inf_pos;
    p.K.o_inf_neg;
    0;
    p.K.i_sbit;
    p.K.o_maxf_pos;
    p.K.o_maxf_neg;
    1;
    p.K.i_sbit lor 1;
    one;
    one lor p.K.i_sbit;
    huge;
    huge lor p.K.i_sbit;
  |]

(** [gen p ~mix ~seed ~n] is a deterministic workload of [n] input
    patterns for plan [p]. *)
let gen (p : K.plan) ~mix ~seed ~n =
  let st = ref (Int64.of_int seed) in
  let mask = (1 lsl p.K.width) - 1 in
  let out = Array.make n 0 in
  (match mix with
  | Uniform ->
      for i = 0 to n - 1 do
        (* Rejection-sample the fast path.  The fast region covers a
           large constant fraction of every (function, format) space
           (worst case the log family's ~half), so the loop terminates
           quickly; cap the tries defensively and keep the last draw if
           the cap ever hits. *)
        let pat = ref (rand_bits st mask) in
        let tries = ref 0 in
        while (not (K.is_fast p !pat)) && !tries < 256 do
          pat := rand_bits st mask;
          incr tries
        done;
        out.(i) <- !pat
      done
  | Hardcase ->
      let pool = edge_pool p in
      let np = Array.length pool in
      for i = 0 to n - 1 do
        out.(i) <-
          (if Int64.to_int (sm_next st) land 1 = 0 then rand_bits st mask
           else pool.(Int64.to_int (sm_next st) land 0x3F_FFFF mod np))
      done
  | Subnormal ->
      let sub_mask = p.K.i_sbit lor p.K.i_mmask in
      for i = 0 to n - 1 do
        out.(i) <-
          (if Int64.to_int (sm_next st) land 0xF < 13 (* ~80% *) then rand_bits st sub_mask
           else rand_bits st mask)
      done);
  out
