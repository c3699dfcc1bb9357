(* Assembles Rlibm.Spec values: one per (function, target).

   Special-case regions (the paper's §2/§5 case analyses) are driven by
   per-target thresholds, each derived from the format's extremes:

   - [exp_hi]: x with f(x) past the format's overflow/saturation
     boundary for every x >= exp_hi (IEEE: rounds to +inf; posit:
     saturates to maxpos);
   - [exp_lo]: x with f(x) at-or-below the underflow boundary (IEEE:
     rounds to +0; posit: rounds to minpos — posits never underflow);
   - [sinh_hi]: |x| past sinh/cosh overflow;
   - [trig_int]: |x| at which every representable value is an integer,
     so sinpi = 0 and cospi = +-1 exactly.

   Tiny-input short-circuits (sinh/tanh/sin/tan/expm1/log1p result x;
   cosh/cos/cospi result 1) use the named per-target thresholds defined
   below ([sinh_snap] and friends), each derived from the target's
   precision so the first neglected Taylor term is provably below half
   an ulp of the result; test/test_specs.ml brute-forces every
   threshold against the oracle around its boundary. *)

module S = Rlibm.Spec
module R = Reductions
module K = Serve.Kernel
module E = Oracle.Elementary
module Repr = Fp.Representation

type target = {
  repr : (module Repr.S);
  tname : string;
  fmt : Fp.Ieee.format option;  (* None for posits *)
  mode : Fp.Rounding_mode.t;
      (* Rounding mode of the generated table.  RNE for the ordinary
         targets; Odd for the (n+2)-bit extended targets whose to-odd
         results re-round correctly under every standard mode. *)
  nan : int;  (* NaN or NaR result pattern *)
  pos_inf : int;  (* exact +inf result, e.g. f(+inf) or the ln(+inf) pole *)
  neg_inf : int;  (* exact -inf result *)
  zero_result : int;  (* exact zero result, e.g. exp(-inf) *)
  ovf_pos : int;
      (* finite x past the overflow boundary: IEEE RNE +inf, to-odd
         maxfinite (odd mantissa, so to-odd never reaches inf), posit
         maxpos *)
  ovf_neg : int;
  und_pos : int;
      (* finite positive result below the underflow boundary: IEEE RNE
         +0, to-odd the smallest subnormal (truncate to 0, sticky set ->
         odd LSB), posit minpos *)
  exp_hi : float;
  exp_lo : float;
  exp2_hi : float;
  exp2_lo : float;
  exp10_hi : float;
  exp10_lo : float;
  sinh_hi : float;
  trig_int : float;
  one_snap : float;
      (* |x| at or below this snaps the exp family to 1.0: chosen so
         |log_b(e)*x| is below half an ulp of 1 in the target.  Besides
         being the paper's special case, it bounds the reduced-input
         exponent spread, which is what keeps the exact LP's tableau
         entries narrow (without it, reduced inputs span every binade
         down to the smallest subnormal and simplex pivots blow up). *)
  trig_tiny : float;
      (* |x| at or below this makes sinpi(x) round like pi*x computed in
         double (paper §2's first special class), and cospi(x) round to
         1; the cubic term is provably below half an ulp. *)
  tanh_hi : float;  (* |x| past this, tanh rounds to +-1 *)
  expm1_lo : float;  (* x at or below this, expm1 rounds to -1 *)
  log_zero : int;  (* result for ln(0): IEEE -inf, posit NaR *)
}

let ieee_target (fmt : Fp.Ieee.format) repr tname ~exp_hi ~exp_lo ~exp2_hi ~exp2_lo ~exp10_hi
    ~exp10_lo ~sinh_hi ~trig_int ~one_snap ~trig_tiny ~tanh_hi ~expm1_lo =
  {
    repr;
    tname;
    fmt = Some fmt;
    mode = Fp.Rounding_mode.Rne;
    nan = Fp.Ieee.nan_pattern fmt;
    pos_inf = Fp.Ieee.inf_pattern fmt 1;
    neg_inf = Fp.Ieee.inf_pattern fmt (-1);
    zero_result = 0;
    ovf_pos = Fp.Ieee.inf_pattern fmt 1;
    ovf_neg = Fp.Ieee.inf_pattern fmt (-1);
    und_pos = 0;
    exp_hi;
    exp_lo;
    exp2_hi;
    exp2_lo;
    exp10_hi;
    exp10_lo;
    sinh_hi;
    trig_int;
    one_snap;
    trig_tiny;
    tanh_hi;
    expm1_lo;
    log_zero = Fp.Ieee.inf_pattern fmt (-1);
  }

let float32 =
  ieee_target Fp.Ieee.float32
    (module Fp.Fp32 : Repr.S)
    "float32" ~exp_hi:88.8 ~exp_lo:(-104.0) ~exp2_hi:128.0 ~exp2_lo:(-150.0) ~exp10_hi:38.6
    ~exp10_lo:(-45.2) ~sinh_hi:89.5 ~trig_int:(Float.ldexp 1.0 23)
    ~one_snap:(Float.ldexp 1.0 (-27)) ~trig_tiny:(Float.ldexp 1.0 (-24)) ~tanh_hi:9.2
    ~expm1_lo:(-17.4)

let bfloat16 =
  ieee_target Fp.Ieee.bfloat16
    (module Fp.Bfloat16 : Repr.S)
    "bfloat16" ~exp_hi:89.0 ~exp_lo:(-93.0) ~exp2_hi:128.0 ~exp2_lo:(-134.0) ~exp10_hi:38.6
    ~exp10_lo:(-40.4) ~sinh_hi:89.5 ~trig_int:256.0 ~one_snap:(Float.ldexp 1.0 (-12))
    ~trig_tiny:(Float.ldexp 1.0 (-9)) ~tanh_hi:3.9 ~expm1_lo:(-6.4)

let float16 =
  ieee_target Fp.Ieee.float16
    (module Fp.Float16 : Repr.S)
    "float16" ~exp_hi:11.1 ~exp_lo:(-17.4) ~exp2_hi:16.0 ~exp2_lo:(-25.0) ~exp10_hi:4.83
    ~exp10_lo:(-7.6) ~sinh_hi:11.8 ~trig_int:2048.0 ~one_snap:(Float.ldexp 1.0 (-14))
    ~trig_tiny:(Float.ldexp 1.0 (-11)) ~tanh_hi:4.4 ~expm1_lo:(-7.8)

let posit_target n repr tname ~exp_hi ~exp_lo ~exp2_hi ~exp2_lo ~exp10_hi ~exp10_lo ~sinh_hi
    ~one_snap =
  let nar = 1 lsl (n - 1) in
  {
    repr;
    tname;
    fmt = None;
    mode = Fp.Rounding_mode.Rne;
    nan = nar;
    pos_inf = nar - 1 (* maxpos: posits have no infinities *);
    neg_inf = nar + 1 (* -maxpos *);
    zero_result = 1 (* minpos: posits never round a positive value to 0 *);
    ovf_pos = nar - 1 (* saturation is mode-independent for posits *);
    ovf_neg = nar + 1;
    und_pos = 1;
    exp_hi;
    exp_lo;
    exp2_hi;
    exp2_lo;
    exp10_hi;
    exp10_lo;
    sinh_hi;
    trig_int = Float.ldexp 1.0 26 (* all posit values this large are integers *);
    one_snap;
    trig_tiny = Float.ldexp 1.0 (-30);
    tanh_hi = 10.8;
    expm1_lo = -20.0;
    log_zero = nar;
  }

let posit32 =
  posit_target 32
    (module Posit.Posit32 : Repr.S)
    "posit32" ~exp_hi:83.6 ~exp_lo:(-83.6) ~exp2_hi:120.5 ~exp2_lo:(-120.5) ~exp10_hi:36.3
    ~exp10_lo:(-36.3) ~sinh_hi:84.5 ~one_snap:(Float.ldexp 1.0 (-31))

let posit16 =
  posit_target 16
    (module Posit.Posit16 : Repr.S)
    "posit16" ~exp_hi:19.8 ~exp_lo:(-19.8) ~exp2_hi:28.5 ~exp2_lo:(-28.5) ~exp10_hi:8.6
    ~exp10_lo:(-8.6) ~sinh_hi:20.5 ~one_snap:(Float.ldexp 1.0 (-16))

(* ------------------------------------------------------------------ *)
(* Extended round-to-odd targets (the RLIBM-ALL construction): the base
   format plus two mantissa bits, generated under round-to-odd.  One
   such table serves every representation of at most the base precision
   in every standard rounding mode (see Fp.Odd_extended).               *)
(* ------------------------------------------------------------------ *)

module Float34 = Fp.Odd_extended.Make (struct
  let fmt = Fp.Ieee.float32
  let ext_name = "float34"
end)

module Bfloat18 = Fp.Odd_extended.Make (struct
  let fmt = Fp.Ieee.bfloat16
  let ext_name = "bfloat18"
end)

module Float18 = Fp.Odd_extended.Make (struct
  let fmt = Fp.Ieee.float16
  let ext_name = "float18"
end)

let odd_target (fmt : Fp.Ieee.format) repr tname ~exp_hi ~exp_lo ~exp2_hi ~exp2_lo ~exp10_hi
    ~exp10_lo ~sinh_hi ~trig_int ~one_snap ~trig_tiny ~tanh_hi ~expm1_lo =
  {
    repr;
    tname;
    fmt = Some fmt;
    mode = Fp.Rounding_mode.Odd;
    nan = Fp.Ieee.nan_pattern fmt;
    pos_inf = Fp.Ieee.inf_pattern fmt 1;
    neg_inf = Fp.Ieee.inf_pattern fmt (-1);
    zero_result = 0;
    (* To-odd overflow stops at maxfinite (its all-ones mantissa is
       already odd) and underflow stops at the smallest subnormal (the
       sticky record of the discarded value sets the LSB). *)
    ovf_pos = Fp.Ieee.max_finite_pattern fmt 1;
    ovf_neg = Fp.Ieee.max_finite_pattern fmt (-1);
    und_pos = 1;
    exp_hi;
    exp_lo;
    exp2_hi;
    exp2_lo;
    exp10_hi;
    exp10_lo;
    sinh_hi;
    trig_int;
    one_snap;
    trig_tiny;
    tanh_hi;
    expm1_lo;
    log_zero = Fp.Ieee.inf_pattern fmt (-1);
  }

(* Saturation thresholds: overflow when b^x > maxfinite of the extended
   format (ln maxfinite34 = 88.722..., log2 = 128, log10 = 38.53...);
   underflow to pattern 1 when b^x is at or below the smallest subnormal
   2^(emin - mb - 2).  The one_snap radius is at most 2^-(mb + 2): both
   to-odd neighbors of 1.0 own two-ulp rounding regions, and |b^x - 1|
   is below 2.303|x| < 2^-mb inside that radius for every base. *)
let float34 =
  odd_target Float34.fmt
    (module Float34 : Repr.S)
    "float34" ~exp_hi:88.8 ~exp_lo:(-104.7) ~exp2_hi:128.0 ~exp2_lo:(-151.0) ~exp10_hi:38.6
    ~exp10_lo:(-45.5) ~sinh_hi:89.5 ~trig_int:(Float.ldexp 1.0 25)
    ~one_snap:(Float.ldexp 1.0 (-27)) ~trig_tiny:(Float.ldexp 1.0 (-24)) ~tanh_hi:9.2
    ~expm1_lo:(-17.4)

let bfloat18 =
  odd_target Bfloat18.fmt
    (module Bfloat18 : Repr.S)
    "bfloat18" ~exp_hi:88.8 ~exp_lo:(-93.6) ~exp2_hi:128.0 ~exp2_lo:(-135.0) ~exp10_hi:38.6
    ~exp10_lo:(-40.7) ~sinh_hi:89.5 ~trig_int:(Float.ldexp 1.0 9)
    ~one_snap:(Float.ldexp 1.0 (-13)) ~trig_tiny:(Float.ldexp 1.0 (-9)) ~tanh_hi:3.9
    ~expm1_lo:(-6.4)

let float18 =
  odd_target Float18.fmt
    (module Float18 : Repr.S)
    "float18" ~exp_hi:11.1 ~exp_lo:(-18.1) ~exp2_hi:16.0 ~exp2_lo:(-26.0) ~exp10_hi:4.83
    ~exp10_lo:(-7.9) ~sinh_hi:11.8 ~trig_int:(Float.ldexp 1.0 12)
    ~one_snap:(Float.ldexp 1.0 (-16)) ~trig_tiny:(Float.ldexp 1.0 (-11)) ~tanh_hi:4.4
    ~expm1_lo:(-7.8)

(** [with_mode t mode] re-targets [t] at a different rounding mode,
    recomputing the mode-dependent saturation results.  The thresholds
    themselves are mode-valid as they stand: every [*_hi] guarantees
    f(x) strictly above maxfinite (not merely above the nearest-mode
    midpoint) and every [*_lo] guarantees f(x) strictly below the
    smallest subnormal (IEEE) — the saturated *result* is all that
    changes between modes.  Posit saturation is mode-independent
    (posits have no infinities and never round a nonzero value to
    zero), so only the mode field changes. *)
let with_mode (t : target) mode =
  match t.fmt with
  | None -> { t with mode }
  | Some fmt ->
      let module M = Fp.Rounding_mode in
      let ovf sign =
        let to_inf =
          match mode with
          | M.Rne | M.Rna -> true
          | M.Up -> sign > 0
          | M.Down -> sign < 0
          | M.Zero | M.Odd -> false
        in
        if to_inf then Fp.Ieee.inf_pattern fmt sign else Fp.Ieee.max_finite_pattern fmt sign
      in
      let und =
        match mode with M.Rne | M.Rna | M.Down | M.Zero -> 0 | M.Up | M.Odd -> 1
      in
      { t with mode; ovf_pos = ovf 1; ovf_neg = ovf (-1); und_pos = und }

(* ------------------------------------------------------------------ *)
(* Tiny-input thresholds.
   Each snap below is the largest power of two 2^-e such that the first
   neglected Taylor term stays strictly below half an ulp of the result
   for every representable |x| <= 2^-e, with the binade edge (where the
   ulp halves on one side) as the binding case.  [p] is the precision in
   significant bits including the hidden bit.  Derivations, with
   half-gap = half the pattern spacing on the side the error points to:

   - sinh x = x + x^3/6 + ... > x; worst at a binade top (x < 2^(k+1),
     half-gap above = 2^(k-p)): x^3/6 < 2^(k-p) <== x^2 < 3*2^-p,
     so e = floor(p/2) gives x^2 <= 2^-(2*floor(p/2)) <= 2*2^-p with a
     >= 1.5x margin absorbing the series tail.
   - tanh x = x - x^3/3 + ... < x, and tan x = x + x^3/3 + ... > x: the
     x^3/3 term needs x^2 < 1.5*2^-p, so e = ceil(p/2).  sin x (term
     x^3/6, below x) shares tan's threshold.
   - cosh x = 1 + x^2/2 + ... > 1 (half-gap above 1 = 2^-p):
     x^2 < 2^(1-p), e = ceil(p/2).
   - cos x = 1 - x^2/2 + ... < 1 (half-gap *below* 1 = 2^-(p+1), one
     binade tighter): x^2 < 2^-p, e = floor(p/2) + 1.
   - cospi x = 1 - (pi x)^2/2 + ... < 1: (pi x)^2 < 2^-p, so
     e = ceil((p + log2 pi^2)/2) = floor((p+5)/2).  The seed's flat
     2^-13 was *unsound* here for float32 (p = 24 needs e = 14:
     (pi*2^-13)^2/2 ~ 2^-23.7 is ~2.3 ulps below 1) and for posit32.
   - expm1 x = x + x^2/2 + ... and log1p x = x - x^2/2 + ...: the error
     points across the binade edge at |x| = 2^k (half-gap 2^(k-p-1)),
     giving |x| < 2^-p; e = p + 1 keeps a 2x margin.

   For posits [p] is the maximum (tapered) precision, reached in the
   binade of 1.0; away from 1 the relative spacing only widens, so every
   x-passthrough threshold derived from it is conservative.            *)
(* ------------------------------------------------------------------ *)

(* Precision in significant bits (including the hidden bit) in the
   binade of 1.0. *)
let precision (t : target) =
  match t.fmt with
  | Some f -> f.Fp.Ieee.mb + 1
  | None -> (
      (* posit<n,es>: 1.0 sits next to the shortest regime, leaving
         n - 2 - es significant bits. *)
      match t.tname with
      | "posit32" -> 28
      | "posit16" -> 13
      | _ -> invalid_arg ("Specs.precision: unknown posit target " ^ t.tname))

let snap e = Float.ldexp 1.0 (-e)
let sinh_snap t = snap (precision t / 2)
let tanh_snap t = snap ((precision t + 1) / 2)
let trig_snap t = snap ((precision t + 1) / 2)
let cosh_snap t = snap ((precision t + 1) / 2)
let cos_snap t = snap ((precision t / 2) + 1)
let cospi_snap t = snap ((precision t + 5) / 2)
let expm1_snap t = snap (precision t + 1)
let log1p_snap t = snap (precision t + 1)

(* ------------------------------------------------------------------ *)
(* Special-case builders.                                              *)
(* ------------------------------------------------------------------ *)

(* Wrap a Finite-case function with the NaN/inf plumbing. *)
let with_classify (t : target) ~on_pos_inf ~on_neg_inf finite pat =
  let module T = (val t.repr) in
  match T.classify pat with
  | Repr.Nan -> Some t.nan
  | Repr.Inf s -> Some (if s > 0 then on_pos_inf else on_neg_inf)
  | Repr.Finite -> finite (T.to_double pat) pat

let exp_family_special (t : target) ~hi ~lo =
  let module T = (val t.repr) in
  let one = T.of_double 1.0 in
  (* The snap is mode-aware.  Nearest modes: |b^x - 1| is far below half
     an ulp inside the snap radius, so the result is 1 itself.  Directed
     modes resolve by the sign of x (b^x is strictly between 1 and a
     neighbor; it is never exactly 1 for x <> 0, and never a tie).
     To-odd always lands on the adjacent *odd* pattern — 1 has an even,
     all-zero mantissa — on the side x selects.  Pattern +-1 arithmetic
     crosses 1.0's binade boundary correctly because IEEE patterns are
     ordinal within a sign. *)
  let snap x =
    if x = 0.0 then one
    else
      match t.mode with
      | Fp.Rounding_mode.Rne | Fp.Rounding_mode.Rna -> one
      | Fp.Rounding_mode.Odd -> if x > 0.0 then one + 1 else one - 1
      | Fp.Rounding_mode.Up -> if x > 0.0 then one + 1 else one
      | Fp.Rounding_mode.Down | Fp.Rounding_mode.Zero -> if x > 0.0 then one else one - 1
  in
  with_classify t ~on_pos_inf:t.pos_inf ~on_neg_inf:t.zero_result (fun x _pat ->
      if x >= hi then Some t.ovf_pos
      else if x <= lo then Some t.und_pos
      else if Float.abs x <= t.one_snap then Some (snap x)
      else None)

let log_family_special (t : target) =
  with_classify t ~on_pos_inf:t.pos_inf ~on_neg_inf:t.nan (fun x _pat ->
      if x = 0.0 then Some t.log_zero else if x < 0.0 then Some t.nan else None)

let sinh_special (t : target) =
  let tiny = sinh_snap t in
  with_classify t ~on_pos_inf:t.pos_inf ~on_neg_inf:t.neg_inf (fun x pat ->
      if x >= t.sinh_hi then Some t.ovf_pos
      else if x <= -.t.sinh_hi then Some t.ovf_neg
      else if Float.abs x <= tiny then Some pat (* sinh x ~ x *)
      else None)

let cosh_special (t : target) =
  let module T = (val t.repr) in
  let one = T.of_double 1.0 in
  let tiny = cosh_snap t in
  with_classify t ~on_pos_inf:t.pos_inf ~on_neg_inf:t.pos_inf (fun x _pat ->
      if Float.abs x >= t.sinh_hi then Some t.ovf_pos
      else if Float.abs x <= tiny then Some one
      else None)

let sinpi_special (t : target) =
  let module T = (val t.repr) in
  with_classify t ~on_pos_inf:t.nan ~on_neg_inf:t.nan (fun x _pat ->
      if Float.abs x >= t.trig_int then
        (* Integer input: sinpi is odd, so the exact zero carries the
           sign of x (-0 for negative integers; posits collapse both
           signs onto their single zero). *)
        Some (T.of_double (Float.copy_sign 0.0 x))
      else if Float.abs x <= t.trig_tiny then
        (* pi*x in double, rounded once: the cubic term is below half an
           ulp at this threshold (paper §2, first special class); the
           product preserves the sign of x, so sinpi(-0) = -0. *)
        Some (T.of_double (Parallel.Once.get Tables.pi_d *. x))
      else None)

let cospi_special (t : target) =
  let module T = (val t.repr) in
  let one = T.of_double 1.0 and minus_one = T.of_double (-1.0) in
  let tiny = cospi_snap t in
  with_classify t ~on_pos_inf:t.nan ~on_neg_inf:t.nan (fun x _pat ->
      let a = Float.abs x in
      if a >= t.trig_int then
        (* Every such value is an integer; Float.rem is exact. *)
        Some (if Float.rem a 2.0 = 1.0 then minus_one else one)
      else if a <= tiny then Some one
      else None)

let tanh_special (t : target) =
  let module T = (val t.repr) in
  let one = T.of_double 1.0 and minus_one = T.of_double (-1.0) in
  let tiny = tanh_snap t in
  with_classify t ~on_pos_inf:one ~on_neg_inf:minus_one (fun x pat ->
      if x >= t.tanh_hi then Some one
      else if x <= -.t.tanh_hi then Some minus_one
      else if Float.abs x <= tiny then Some pat (* tanh x ~ x *)
      else None)

let expm1_special (t : target) =
  let module T = (val t.repr) in
  let minus_one = T.of_double (-1.0) in
  let tiny = expm1_snap t in
  with_classify t ~on_pos_inf:t.pos_inf ~on_neg_inf:minus_one (fun x pat ->
      if x >= t.exp_hi then Some t.ovf_pos
      else if x <= t.expm1_lo then Some minus_one
      else if Float.abs x <= tiny then Some pat (* expm1 x ~ x *)
      else None)

let log1p_special (t : target) =
  let tiny = log1p_snap t in
  with_classify t ~on_pos_inf:t.pos_inf ~on_neg_inf:t.nan (fun x pat ->
      if x < -1.0 then Some t.nan
      else if x = -1.0 then Some t.log_zero
      else if Float.abs x <= tiny then Some pat (* log1p x ~ x *)
      else None)

(* Radian trig: NaN for infinities; the only other specials are the
   tiny-input snaps (sin x ~ x, tan x ~ x, cos x ~ 1) — every other
   finite input goes through the Payne–Hanek reduction.  The pattern
   passthrough preserves signed zero (sin/tan are odd). *)
let sin_special (t : target) =
  let tiny = trig_snap t in
  with_classify t ~on_pos_inf:t.nan ~on_neg_inf:t.nan (fun x pat ->
      if Float.abs x <= tiny then Some pat else None)

let tan_special = sin_special

let cos_special (t : target) =
  let module T = (val t.repr) in
  let one = T.of_double 1.0 in
  let tiny = cos_snap t in
  with_classify t ~on_pos_inf:t.nan ~on_neg_inf:t.nan (fun x _pat ->
      if Float.abs x <= tiny then Some one else None)

(* ------------------------------------------------------------------ *)
(* Components.                                                         *)
(* ------------------------------------------------------------------ *)

let log_component name oracle =
  {
    S.cname = name;
    coracle = oracle;
    terms = [| 1; 2; 3 |];
    dom_pos = Some R.log_dom_pos;
    dom_neg = None;
  }

let exp_component name oracle ~half_width =
  let dn, dp = R.exp_dom ~half_width in
  { S.cname = name; coracle = oracle; terms = [| 0; 1; 2; 3 |]; dom_pos = dp; dom_neg = dn }

let sinpi_r_component =
  {
    S.cname = "sinpi_r";
    coracle = E.sinpi;
    terms = [| 1; 3; 5 |];
    dom_pos = Some R.sincospi_dom_pos;
    dom_neg = None;
  }

let cospi_r_component =
  {
    S.cname = "cospi_r";
    coracle = E.cospi;
    terms = [| 0; 2; 4 |];
    dom_pos = Some R.sincospi_dom_pos;
    dom_neg = None;
  }

let sinh_r_component =
  {
    S.cname = "sinh_r";
    coracle = E.sinh;
    terms = [| 1; 3; 5 |];
    dom_pos = Some R.sinhcosh_dom_pos;
    dom_neg = None;
  }

let cosh_r_component =
  {
    S.cname = "cosh_r";
    coracle = E.cosh;
    terms = [| 0; 2; 4 |];
    dom_pos = Some R.sinhcosh_dom_pos;
    dom_neg = None;
  }

(* Radian trig components: one sin/cos pair on the Payne–Hanek +
   table-fold reduced domain |r| <= pi/1024 serves sin, cos and tan
   (quotient).  The residual is signed (r1 rounds to the nearest
   pi/512 grid point), so both sign groups are fitted, like the exp
   family's. *)
let trig_dom_neg, trig_dom_pos = R.trig_dom

let sin_r_component =
  {
    S.cname = "sin_r";
    coracle = E.sin;
    terms = [| 1; 3; 5 |];
    dom_pos = trig_dom_pos;
    dom_neg = trig_dom_neg;
  }

let cos_r_component =
  {
    S.cname = "cos_r";
    coracle = E.cos;
    terms = [| 0; 2; 4 |];
    dom_pos = trig_dom_pos;
    dom_neg = trig_dom_neg;
  }

(* ------------------------------------------------------------------ *)
(* Flat families: the serving kernel's descriptor is the definition.   *)
(* ------------------------------------------------------------------ *)

(* RR_H and OC_H of a flat family run {!Serve.Kernel.reduce} and
   {!Serve.Kernel.compensate} through a fresh scratch (x and r in slot
   0, component values in 1-2, the result in 3), so the generator fits
   the tables against exactly the arithmetic the kernel serves. *)
let flat_reduce family x =
  let s = [| x; 0.0; 0.0; 0.0 |] in
  let key = K.reduce family s in
  { S.r = s.(0); key }

let flat_compensate family (rr : S.reduction) (v : float array) =
  let s = [| rr.r; v.(0); (if Array.length v > 1 then v.(1) else 0.0); 0.0 |] in
  K.compensate family s rr.key;
  s.(3)

let once = Parallel.Once.get

let log_family ?(add_one = false) escale tbl = K.Log { escale; f_tbl = once tbl; add_one }

(* [inv_c] = 64/log_b(2) as a double, [cw] the split constant
   log_b(2)/64. *)
let exp_family ?(minus_one = false) inv_c (cw : Tables.cody_waite) =
  K.Exp { inv_c; cw_hi = cw.hi; cw_lo = cw.lo; t2 = once Tables.exp2_j; minus_one }

let inv_ln2_64 = 92.332482616893656877 (* 64/ln2 *)

(* exp2 needs no Cody-Waite split: r = x - k/64 is exact in double. *)
let exp2_cw = { Tables.hi = 0.015625; lo = 0.0 }

let flat_spec (t : target) name oracle special components ~split_hint family check =
  {
    S.name;
    repr = t.repr;
    mode = t.mode;
    oracle;
    special;
    reduce = flat_reduce family;
    components;
    compensate = flat_compensate family;
    oc_corners = false;
    split_hint;
    kernel = Some { S.family; check; fmt = t.fmt };
  }

let log_spec (t : target) name oracle (cname, coracle) family =
  flat_spec t name oracle (log_family_special t) [| log_component cname coracle |] ~split_hint:6
    family K.Chk_log

let ln t = log_spec t "ln" E.ln ("ln_1p", E.ln_1p) (log_family (once Tables.ln2_d) Tables.ln_f)

(* e*1.0 is exact, so log2 shares the family's expression. *)
let log2 t = log_spec t "log2" E.log2 ("log2_1p", E.log2_1p) (log_family 1.0 Tables.log2_f)

let log10 t =
  log_spec t "log10" E.log10 ("log10_1p", E.log10_1p)
    (log_family (once Tables.log10_2_d) Tables.log10_f)

let exp_spec (t : target) name oracle ~hi ~lo ~half_width family =
  flat_spec t name oracle
    (exp_family_special t ~hi ~lo)
    [| exp_component (name ^ "_r") oracle ~half_width |]
    ~split_hint:6 family
    (K.Chk_signed { hi; lo; snap = t.one_snap })

let exp t =
  exp_spec t "exp" E.exp ~hi:t.exp_hi ~lo:t.exp_lo ~half_width:0.0054182
    (exp_family inv_ln2_64 (once Tables.ln2_over_64))

let exp2 t =
  exp_spec t "exp2" E.exp2 ~hi:t.exp2_hi ~lo:t.exp2_lo ~half_width:0.0078125 (exp_family 64.0 exp2_cw)

let exp10 t =
  exp_spec t "exp10" E.exp10 ~hi:t.exp10_hi ~lo:t.exp10_lo ~half_width:0.0023526
    (exp_family 212.60335893188592315 (* 64*log2(10) *) (once Tables.log10_2_over_64))

let sinh (t : target) =
  flat_spec t "sinh" E.sinh (sinh_special t) [| sinh_r_component; cosh_r_component |] ~split_hint:4
    (K.Sinh { sh = once Tables.sinh_n; ch = once Tables.cosh_n })
    (K.Chk_abs { hi = t.sinh_hi; snap = sinh_snap t })

let cosh (t : target) =
  flat_spec t "cosh" E.cosh (cosh_special t) [| sinh_r_component; cosh_r_component |] ~split_hint:4
    (K.Cosh { sh = once Tables.sinh_n; ch = once Tables.cosh_n })
    (K.Chk_abs { hi = t.sinh_hi; snap = cosh_snap t })

let sinpi (t : target) =
  flat_spec t "sinpi" E.sinpi (sinpi_special t) [| sinpi_r_component; cospi_r_component |]
    ~split_hint:2
    (K.Sinpi { spn = once Tables.sinpi_n; cpn = once Tables.cospi_n })
    (K.Chk_abs { hi = t.trig_int; snap = t.trig_tiny })

let cospi (t : target) =
  flat_spec t "cospi" E.cospi (cospi_special t) [| sinpi_r_component; cospi_r_component |]
    ~split_hint:2
    (K.Cospi { spn = once Tables.sinpi_n; cpn = once Tables.cospi_n })
    (K.Chk_abs { hi = t.trig_int; snap = cospi_snap t })

(* Extensions (paper §7: more elementary functions on the same
   machinery).  tanh(|x|) = (W - 1)/(W + 1) with W = e^(2|x|); expm1
   subtracts 1 after the exp compensation; log1p reduces z = 1 + x,
   exact in double for every target value outside the |x| <= tiny
   special region. *)
let tanh (t : target) =
  let cw = once Tables.ln2_over_64 in
  flat_spec t "tanh" E.tanh (tanh_special t)
    [| exp_component "exp_r" E.exp ~half_width:0.0054182 |]
    ~split_hint:6
    (K.Tanh { inv_c = inv_ln2_64; cw_hi = cw.hi; cw_lo = cw.lo; t2 = once Tables.exp2_j })
    (K.Chk_abs { hi = t.tanh_hi; snap = tanh_snap t })

let expm1 (t : target) =
  flat_spec t "expm1" E.expm1 (expm1_special t)
    [| exp_component "exp_r" E.exp ~half_width:0.0054182 |]
    ~split_hint:6
    (exp_family ~minus_one:true inv_ln2_64 (once Tables.ln2_over_64))
    (K.Chk_signed { hi = t.exp_hi; lo = t.expm1_lo; snap = expm1_snap t })

let log1p (t : target) =
  flat_spec t "log1p" E.log1p (log1p_special t) [| log_component "ln_1p" E.ln_1p |] ~split_hint:6
    (log_family ~add_one:true (once Tables.ln2_d) Tables.ln_f)
    (K.Chk_log1p { snap = log1p_snap t })

(* ------------------------------------------------------------------ *)
(* Radian trig: Payne–Hanek reduction, no flat kernel (the degree-7    *)
(* component shapes fall outside the four shipped Horner shapes).      *)
(* ------------------------------------------------------------------ *)

let sin (t : target) =
  {
    S.name = "sin";
    repr = t.repr;
    mode = t.mode;
    oracle = E.sin;
    special = sin_special t;
    reduce = R.trig_reduce;
    components = [| sin_r_component; cos_r_component |];
    compensate = R.sin_compensate;
    (* The angle-sum OCs mix coefficient signs (cpn*v1 - spn*v0), so no
       trig OC is jointly monotone along the diagonal: all three specs
       probe box corners. *)
    oc_corners = true;
    split_hint = 3;
    kernel = None;
  }

let cos (t : target) =
  {
    S.name = "cos";
    repr = t.repr;
    mode = t.mode;
    oracle = E.cos;
    special = cos_special t;
    reduce = R.trig_reduce;
    components = [| sin_r_component; cos_r_component |];
    compensate = R.cos_compensate;
    oc_corners = true;
    split_hint = 3;
    kernel = None;
  }

let tan (t : target) =
  {
    S.name = "tan";
    repr = t.repr;
    mode = t.mode;
    oracle = E.tan;
    special = tan_special t;
    reduce = R.trig_reduce;
    components = [| sin_r_component; cos_r_component |];
    compensate = R.tan_compensate;
    oc_corners = true;
    split_hint = 3;
    kernel = None;
  }

(** The paper's function sets. *)
let float_functions = [ "ln"; "log2"; "log10"; "exp"; "exp2"; "exp10"; "sinh"; "cosh"; "sinpi"; "cospi"; "sin"; "cos"; "tan" ]

let posit_functions = [ "ln"; "log2"; "log10"; "exp"; "exp2"; "exp10"; "sinh"; "cosh" ]

(** Extensions beyond the paper's ten (its §7 future work). *)
let extension_functions = [ "tanh"; "expm1"; "log1p" ]

(** Functions available under non-nearest rounding modes (the extended
    round-to-odd targets and [with_mode] re-targets): the log and exp
    families, whose special-case analyses are mode-aware.  The x ~ 0
    linear-term snaps of sinh/tanh/expm1/log1p assume nearest rounding —
    under a directed mode or to-odd the result is an *adjacent* pattern,
    on a side set by the next Taylor term's sign — and sinpi's pi*x
    double-rounding shortcut can land on the wrong side of a directed
    boundary; those functions are rejected rather than silently
    misrounded. *)
let odd_functions = [ "ln"; "log2"; "log10"; "exp"; "exp2"; "exp10" ]

(** The functions {!by_name} accepts under a non-nearest [mode]:
    {!odd_functions}, less exp10 under round-to-odd.  10^x is exact at
    x = 2 (and other small integers), so its to-odd rounding interval
    there is a single point, which the output compensation misses on
    every target. *)
let non_nearest_functions mode =
  if mode = Fp.Rounding_mode.Odd then List.filter (( <> ) "exp10") odd_functions
  else odd_functions

let by_name name t =
  if t.mode <> Fp.Rounding_mode.Rne && not (List.mem name (non_nearest_functions t.mode)) then
    invalid_arg
      (if List.mem name odd_functions then
         "Specs.by_name: exp10 is refused under round-to-odd: 10^x is exact at x = 2, where \
          the to-odd rounding interval is a single point the output compensation cannot hit"
       else
         "Specs.by_name: " ^ name ^ " has no special-case analysis for mode "
         ^ Fp.Rounding_mode.to_string t.mode);
  let spec =
    match name with
    | "ln" -> ln t
    | "log2" -> log2 t
    | "log10" -> log10 t
    | "exp" -> exp t
    | "exp2" -> exp2 t
    | "exp10" -> exp10 t
    | "sinh" -> sinh t
    | "cosh" -> cosh t
    | "sinpi" -> sinpi t
    | "cospi" -> cospi t
    | "tanh" -> tanh t
    | "expm1" -> expm1 t
    | "log1p" -> log1p t
    | "sin" -> sin t
    | "cos" -> cos t
    | "tan" -> tan t
    | _ -> invalid_arg ("Specs.by_name: unknown function " ^ name)
  in
  (* Posit rounding intervals are tighter near 1 (tapered precision), so
     each sub-domain's LP works harder; a shallower table keeps posit
     generation affordable at this repo's scale (the paper, with a C+
     SoPlex pipeline and hours of budget, went the other way and gave
     posits *larger* tables — Table 3). *)
  if String.length t.tname >= 5 && String.sub t.tname 0 5 = "posit" then
    { spec with S.split_hint = Stdlib.min spec.S.split_hint 4 }
  else spec
