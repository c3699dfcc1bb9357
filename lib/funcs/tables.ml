(* Lookup tables and double constants for the range reductions.

   Every entry is the correctly rounded double of its mathematical value,
   computed once per process from the oracle (the paper precomputes the
   same tables with MPFR, §2.1/§5).  All tables are one-shot
   ({!Parallel.Once}): a function family pays for its tables on first
   use only, and the force is domain-safe — the generator's parallel
   passes may touch a table first from any worker domain. *)

module Once = Parallel.Once

module E = Oracle.Elementary
module Q = Rational

let cr f q = E.to_double f q

(* ------------------------------------------------------------------ *)
(* Constants.                                                          *)
(* ------------------------------------------------------------------ *)

let ln2_d = Once.make (fun () -> Oracle.Bigfloat.to_float (E.ln2 ~prec:80))
let ln10_d = Once.make (fun () -> Oracle.Bigfloat.to_float (E.ln10 ~prec:80))
let pi_d = Once.make (fun () -> Oracle.Bigfloat.to_float (E.pi ~prec:80))

(* log10(2) and log2(10), correctly rounded. *)
let log10_2_d = Once.make (fun () -> cr E.log10 (Q.of_int 2))
let log2_10_d = Once.make (fun () -> cr E.log2 (Q.of_int 10))

(* ------------------------------------------------------------------ *)
(* Cody–Waite constant pairs for the exp-family argument reduction:    *)
(* c = c_hi + c_lo with c_hi carrying ~32 significant bits, so k*c_hi  *)
(* is exact for |k| up to ~2^20.                                       *)
(* ------------------------------------------------------------------ *)

type cody_waite = { hi : float; lo : float }

(* Split the correctly rounded double of the exact rational [q]. *)
let split q =
  let c = Q.to_float q in
  (* Zero the low 21 mantissa bits of c. *)
  let hi = Fp.Fp64.of_bits (Int64.logand (Fp.Fp64.bits c) 0xFFFFFFFFFFE00000L) in
  let lo = Q.to_float (Q.sub q (Q.of_float hi)) in
  { hi; lo }

(* ln2/64 exactly, as a rational at oracle precision. *)
let ln2_over_64 =
  Once.make (fun () -> split (Q.mul_pow2 (Oracle.Bigfloat.to_rational (E.ln2 ~prec:140)) (-6)))

(* pi/512 for the trig second-level reduction (n*hi exact for n <= 128),
   and 512/pi as a plain double for picking n. *)
let pi_over_512 =
  Once.make (fun () -> split (Q.mul_pow2 (Oracle.Bigfloat.to_rational (E.pi ~prec:140)) (-9)))

let inv_pi_512 =
  Once.make (fun () ->
      Q.to_float (Q.div (Q.of_int 512) (Oracle.Bigfloat.to_rational (E.pi ~prec:140))))

let log10_2_over_64 =
  Once.make (fun () ->
    split
       (Q.mul_pow2
          (Q.div
             (Oracle.Bigfloat.to_rational (E.ln2 ~prec:140))
             (Oracle.Bigfloat.to_rational (E.ln10 ~prec:140)))
          (-6)))

(* ------------------------------------------------------------------ *)
(* Log family: F = 1 + j/128, tables of ln/log2/log10 of F.            *)
(* ------------------------------------------------------------------ *)

let log_table f =
  Once.make (fun () -> Array.init 128 (fun j -> cr f (Q.add Q.one (Q.of_ints j 128))))

let ln_f = log_table E.ln
let log2_f = log_table E.log2
let log10_f = log_table E.log10

(* ------------------------------------------------------------------ *)
(* Exp family: 2^(j/64) for j in [0, 64).                              *)
(* ------------------------------------------------------------------ *)

let exp2_j = Once.make (fun () -> Array.init 64 (fun j -> cr E.exp2 (Q.of_ints j 64)))

(* ------------------------------------------------------------------ *)
(* sinpi/cospi: sinpi(N/512), cospi(N/512) for N in [0, 256].          *)
(* ------------------------------------------------------------------ *)

let sinpi_n = Once.make (fun () -> Array.init 257 (fun n -> cr E.sinpi (Q.of_ints n 512)))
let cospi_n = Once.make (fun () -> Array.init 257 (fun n -> cr E.cospi (Q.of_ints n 512)))

(* ------------------------------------------------------------------ *)
(* sinh/cosh: sinh(N/64), cosh(N/64) for N in [0, 5760) (covers        *)
(* |x| < 90, past every 32-bit target's overflow/saturation point).    *)
(* ------------------------------------------------------------------ *)

let sinh_n = Once.make (fun () -> Array.init 5760 (fun n -> cr E.sinh (Q.of_ints n 64)))
let cosh_n = Once.make (fun () -> Array.init 5760 (fun n -> cr E.cosh (Q.of_ints n 64)))

(* ------------------------------------------------------------------ *)
(* sin/cos/tan: wide fixed-point 2/pi for the Payne–Hanek reduction.   *)
(* ------------------------------------------------------------------ *)

(* 2/pi as [ph_chunks] 30-bit chunks, most significant first:
   2/pi = sum_i chunk.(i) * 2^(-30*(i+1)) + eps with 0 <= eps <
   2^(-30*ph_chunks).  30-bit chunks keep every runtime product
   significand * chunk below 2^56, inside the native int.  480 bits
   cover the largest product window any trig target needs: a <= 26-bit
   significand times 2^e with e <= 102, against a 208-bit fraction
   window, touches 2/pi bits no deeper than position ~370. *)
let ph_chunks = 16

let two_over_pi =
  Once.make (fun () ->
      let bits = 30 * ph_chunks in
      let w = bits + 64 in
      let inv = Oracle.Bigfloat.div ~prec:w (Oracle.Bigfloat.of_int 2) (E.pi ~prec:w) in
      let t = Q.floor (Q.mul_pow2 (Oracle.Bigfloat.to_rational inv) bits) in
      let m30 = Bigint.shift_left Bigint.one 30 in
      Array.init ph_chunks (fun i ->
          Bigint.to_int_exn (Bigint.rem (Bigint.shift_right t (30 * (ph_chunks - 1 - i))) m30)))
