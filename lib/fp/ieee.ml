(* Generic small IEEE-754 binary formats (width <= 34), parameterized by
   exponent and trailing-significand widths.  Instantiated as float32,
   bfloat16 and float16 in their own modules, and extended with two
   extra mantissa bits by {!Odd_extended} for round-to-odd tables. *)

module B = Bigint
module Q = Rational
module M = Rounding_mode

type format = { name : string; eb : int; mb : int }

let float32 = { name = "float32"; eb = 8; mb = 23 }
let bfloat16 = { name = "bfloat16"; eb = 8; mb = 7 }
let float16 = { name = "float16"; eb = 5; mb = 10 }

let width f = 1 + f.eb + f.mb
let bias f = (1 lsl (f.eb - 1)) - 1
let exp_mask f = (1 lsl f.eb) - 1
let mant_mask f = (1 lsl f.mb) - 1
let sign_bit f = 1 lsl (width f - 1)

(* Smallest normal exponent (unbiased). *)
let emin f = 1 - bias f

(* Largest finite exponent (unbiased). *)
let emax f = bias f

let classify f p =
  let e = (p lsr f.mb) land exp_mask f in
  let m = p land mant_mask f in
  if e = exp_mask f then (if m = 0 then Representation.Inf (if p land sign_bit f = 0 then 1 else -1) else Representation.Nan)
  else Representation.Finite

let to_double f p =
  let s = if p land sign_bit f = 0 then 1.0 else -1.0 in
  let e = (p lsr f.mb) land exp_mask f in
  let m = p land mant_mask f in
  if e = exp_mask f then (if m = 0 then s *. infinity else Float.nan)
  else if e = 0 then s *. Float.ldexp (float_of_int m) (emin f - f.mb)
  else s *. Float.ldexp (float_of_int (m lor (1 lsl f.mb))) (e - bias f - f.mb)

let to_rational f p =
  match classify f p with
  | Representation.Finite -> Q.of_float (to_double f p)
  | Representation.Inf _ | Representation.Nan -> invalid_arg (f.name ^ ".to_rational: not finite")

let nan_pattern f = (exp_mask f lsl f.mb) lor (1 lsl (f.mb - 1))
let inf_pattern f sign = (if sign < 0 then sign_bit f else 0) lor (exp_mask f lsl f.mb)
let max_finite_pattern f sign =
  (if sign < 0 then sign_bit f else 0) lor ((exp_mask f - 1) lsl f.mb) lor mant_mask f

(* Where an out-of-range magnitude lands depends on the mode: the
   nearest modes overflow to infinity, toward-the-sign directed modes
   do too, while truncating modes saturate at the largest finite value
   (whose all-ones significand is odd, so round-to-odd also lands
   there and never produces a spurious infinity). *)
let overflow_pattern f mode sign =
  let neg = sign <> 0 in
  let to_inf =
    match mode with
    | M.Rne | M.Rna -> true
    | M.Up -> not neg
    | M.Down -> neg
    | M.Zero | M.Odd -> false
  in
  if to_inf then sign lor (exp_mask f lsl f.mb)
  else max_finite_pattern f (if neg then -1 else 1)

(* Shared tail of both rounding paths: the significand [m] (already
   incremented or not) with [prec] kept bits at scale [2^scale].  A
   carry out of the binade just bumps the scale; in the subnormal
   branch [scale = emin - mb] by construction, so a significand that
   grows to 2^mb lands exactly on the smallest normal. *)
let finish f mode sign m prec scale =
  let m, scale = if m = 1 lsl prec then (m lsr 1, scale + 1) else (m, scale) in
  if m lsr f.mb > 0 then begin
    let unbiased = f.mb + scale in
    if unbiased > emax f then overflow_pattern f mode sign
    else sign lor ((unbiased + bias f) lsl f.mb) lor (m land mant_mask f)
  end
  else
    (* Subnormal: the field encodes value * 2^(mb - emin). *)
    sign lor (m lsl (scale - (emin f - f.mb)))

(* Below every subnormal (|a| < minsub): the value is sandwiched
   between the two patterns 0 and 1, so the increment decision alone
   picks the result.  [half_cmp] compares |a| against half of minsub. *)
let underflow mode sign half_cmp =
  let up =
    M.round_up ~mode ~neg:(sign <> 0) ~odd:false ~inexact:true ~half_cmp
  in
  if up then sign lor 1 else sign

(* Round an exact rational to a pattern under [mode], with gradual
   underflow and mode-dependent overflow.  This is the direct real -> T
   rounding (no intermediate double), which matters: rounding through
   double first is exactly the double-rounding bug the paper pins on
   CR-LIBM (§4.2). *)
let round_rational f ?(mode = M.Rne) q =
  if Q.is_zero q then 0
  else begin
    let sign = if Q.sign q < 0 then sign_bit f else 0 in
    let a = Q.abs q in
    let e = Q.ilog2 a in
    if e > emax f + 1 then overflow_pattern f mode sign
    else begin
      (* Effective precision: full for normals, reduced in the subnormal
         range; [e] below all subnormals yields precision <= 0 and a
         zero/minsub decision by the same rounding rule. *)
      let prec = if e >= emin f then f.mb + 1 else f.mb + 1 + (e - emin f) in
      if prec <= 0 then
        underflow mode sign (Q.compare a (Q.of_pow2 (emin f - f.mb - 1)))
      else begin
        let k = prec - 1 - e in
        let n = Q.num a and d = Q.den a in
        let num = if k >= 0 then B.shift_left n k else n in
        let den = if k >= 0 then d else B.shift_left d (-k) in
        let quot, rem = B.divmod num den in
        let m = B.to_int_exn quot in
        let twice = B.shift_left rem 1 in
        let half_cmp = B.compare twice den in
        let inexact = B.compare rem B.zero <> 0 in
        let up =
          M.round_up ~mode ~neg:(sign <> 0) ~odd:(m land 1 = 1) ~inexact ~half_cmp
        in
        let m = if up then m + 1 else m in
        finish f mode sign m prec (e - prec + 1)
      end
    end
  end

(* A normal-range result (emin <= e <= emax) in one add and one shift
   (RLIBM-ALL's integer re-rounding).  [t] is the double rebiased to the
   target exponent, ((e + bias) lsl 52) lor mantissa, and [sh] = 52 - mb,
   so [t lsr sh] is the truncated pattern without its sign.  The bias
   added below the kept bits first makes truncation round: half-1 plus
   the lowest kept bit (RNE), half (RNA), all ones when the direction
   points away from zero (Up, Down), nothing (Zero); Odd truncates and
   ORs in the sticky bit.  A mantissa carry lands in the next binade,
   and at emax on the infinity pattern — correct for exactly the modes
   whose bias can carry there.  {!Serve.Kernel.round_bits} runs the same
   rule on the serving path. *)
let round_normal mode neg sh t =
  let low = (1 lsl sh) - 1 in
  match mode with
  | M.Rne -> (t + (low lsr 1) + ((t lsr sh) land 1)) lsr sh
  | M.Rna -> (t + (low lsr 1) + 1) lsr sh
  | M.Up -> if neg then t lsr sh else (t + low) lsr sh
  | M.Down -> if neg then (t + low) lsr sh else t lsr sh
  | M.Zero -> t lsr sh
  | M.Odd -> (t lsr sh) lor (((t land low) + low) lsr sh)

(* Mode-aware double -> pattern in plain integer arithmetic.  The
   rounding-interval search probes this on every step, so going through
   {!round_rational}'s bignum path would dominate generation time; the
   double's 53-bit significand fits a native int, making the guard and
   sticky computation a couple of shifts, and a normal-range result
   {!round_normal}'s single add.  Cross-checked against the rational
   path by a qcheck differential suite. *)
let of_double_finite f mode x =
  let bits = Int64.bits_of_float x in
  let neg = Int64.logand bits Int64.min_int <> 0L in
  let sign = if neg then sign_bit f else 0 in
  let de = Int64.to_int (Int64.logand (Int64.shift_right_logical bits 52) 0x7FFL) in
  let dm = Int64.to_int (Int64.logand bits 0xF_FFFF_FFFF_FFFFL) in
  let e = de - 1023 in
  if e >= emin f && e <= emax f then
    sign lor round_normal mode neg (52 - f.mb) (((e + bias f) lsl 52) lor dm)
  else if de = 0 then
    (* A subnormal double (|x| < 2^-1022) sits far below half of any
       target's smallest subnormal, but is still nonzero. *)
    underflow mode sign (-1)
  else begin
    (* Overflowing or subnormal: the general guard/sticky path. *)
    let m53 = dm lor (1 lsl 52) in
    if e > emax f + 1 then overflow_pattern f mode sign
    else begin
      let prec = if e >= emin f then f.mb + 1 else f.mb + 1 + (e - emin f) in
      if prec <= 0 then
        (* |x| < minsub.  Only at e = emin - mb - 1 can |x| reach half
           of minsub, where the comparison is m53 against 2^52. *)
        underflow mode sign
          (if e < emin f - f.mb - 1 then -1 else compare m53 (1 lsl 52))
      else begin
        (* prec <= 26 < 53 for every format we instantiate. *)
        let shift = 53 - prec in
        let m = m53 lsr shift in
        let rest = m53 land ((1 lsl shift) - 1) in
        let inexact = rest <> 0 in
        let half_cmp = compare (rest lsl 1) (1 lsl shift) in
        let up =
          M.round_up ~mode ~neg ~odd:(m land 1 = 1) ~inexact ~half_cmp
        in
        let m = if up then m + 1 else m in
        finish f mode sign m prec (e - prec + 1)
      end
    end
  end

let of_double f ?(mode = M.Rne) x =
  if Float.is_nan x then nan_pattern f
  else if x = infinity then inf_pattern f 1
  else if x = neg_infinity then inf_pattern f (-1)
  else if x = 0.0 then if 1.0 /. x < 0.0 then sign_bit f else 0
  else of_double_finite f mode x

let order_key f p = if p land sign_bit f = 0 then p else sign_bit f - p

(* Pattern-level GetNext/GetPrev (Algorithm 2's neighbor walk), matching
   {!Fp64.next_up}/{!Fp64.next_down} value semantics: +-0 step to the
   smallest subnormal of the step's sign, the infinities saturate in
   their own direction and step back to the largest finite the other
   way.
   @raise Invalid_argument on a NaN pattern. *)
let next_up f p =
  match classify f p with
  | Representation.Nan -> invalid_arg (f.name ^ ".next_up: nan pattern")
  | _ ->
      if p = inf_pattern f 1 then p
      else if p land sign_bit f = 0 then p + 1
      else if p = sign_bit f (* -0 *) then 1
      else p - 1

let next_down f p =
  match classify f p with
  | Representation.Nan -> invalid_arg (f.name ^ ".next_down: nan pattern")
  | _ ->
      if p = inf_pattern f (-1) then p
      else if p = 0 (* +0 *) then sign_bit f lor 1
      else if p land sign_bit f = 0 then p - 1
      else p + 1
