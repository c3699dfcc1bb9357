(* Range-reduction support: the reduced-domain hulls of every family,
   and the radian trig family's reduction RR_H and compensations OC_H.

   The flat families' reductions and compensations (log, exp, tanh,
   sinpi/cospi, sinh/cosh) are defined once, in {!Serve.Kernel.reduce}
   and {!Serve.Kernel.compensate}; {!Specs} derives the spec closures
   from the kernel descriptor.  sin/cos/tan have no flat kernel, so
   their reduction lives here.  Each family packs whatever OC needs
   (table index, scale, signs) into the integer [key] of
   [Spec.reduction]. *)

module S = Rlibm.Spec

(* Analytic hull of the log families' reduced input: r = f/F with
   0 <= f < 2^-7; the smallest nonzero f is one ulp of the (<= 28-bit
   significand) input value near an F grid point, so r >= ~2^-31 for
   every 32-bit target (log1p widens the significand to ~49 bits only
   for inputs whose r stays >= 2^-31 anyway).  Keeping the hull's low
   end close to the true minimum matters: the sub-domain index clamps
   r = 0 to the low end, and a hull that reaches far below the real
   reduced inputs manufactures phantom sub-domains whose only content is
   that degenerate constraint. *)
let log_dom_pos = (Float.ldexp 1.0 (-33), Float.ldexp 1.0 (-7))

(* Exp family: r spans [-log_b(2)/128, +log_b(2)/128]; down to one
   target ulp. *)
let exp_dom ~half_width =
  ( Some (-.half_width, -.Float.ldexp 1.0 (-36)),
    Some (Float.ldexp 1.0 (-36), half_width) )

(* Exact fractional decomposition of z >= 0 (z < 2^52): z mod 2 and its
   integer/fraction split, all exact in double. *)
let mod2_split z =
  let j = z -. (2.0 *. Float.of_int (Float.to_int (z /. 2.0))) in
  let j = if j < 0.0 then j +. 2.0 else j in
  let k = if j >= 1.0 then 1 else 0 in
  let l = j -. float_of_int k in
  (k, l)

(* Reduced domain for both sinpi and cospi components: R in [0, 1/512]. *)
let sincospi_dom_pos = (Float.ldexp 1.0 (-32), 1.0 /. 512.0)

(* sinh/cosh: R = |x| - N/64 in [0, 1/64). *)
let sinhcosh_dom_pos = (Float.ldexp 1.0 (-31), 1.0 /. 64.0)

(* ------------------------------------------------------------------ *)
(* sin/cos/tan: Payne–Hanek reduction by the nearest multiple of pi/2. *)
(*                                                                     *)
(* |x| = D * 2^e with D < 2^26 (every trig target has at most 26       *)
(* significand bits).  The product |x| * 2/pi is accumulated against   *)
(* the fixed-point chunk table [Tables.two_over_pi] into a 210-bit     *)
(* window — 2 quadrant bits above the binary point, 208 fraction bits  *)
(* below.  Chunks whose contribution is a multiple of 4 (weight >= 4)  *)
(* are skipped outright; chunks entirely below 2^-208 are truncated    *)
(* (error < 2^-208, against |frac| >= ~2^-31 for every float32 input   *)
(* — the worst-case closeness of a 24-bit significand to a multiple    *)
(* of pi/2).  The fraction is rounded to the nearest integer of        *)
(* quadrants, leaving f in [-1/2, 1/2]; its magnitude keeps >= 60      *)
(* significant bits, so r1 = |f| * (pi/2) carries a relative error     *)
(* ~2^-52.  That error need not be zero: Algorithm 2 anchors every     *)
(* constraint at the *computed* r, and the generator's final           *)
(* validation replays this exact code path, so the certificate is      *)
(* about the value actually served.                                    *)
(*                                                                     *)
(* A second level then folds r1 = |f| * (pi/2) in [0, pi/4] against    *)
(* the sinpi/cospi tables: r1 = N*(pi/512) + r, N in [0, 128], |r| <=  *)
(* pi/1024, with sinpi_n[N] = sin(N*pi/512) and cospi_n[N] =           *)
(* cos(N*pi/512) exactly the existing table entries.  The components   *)
(* the generator fits are sin/cos of the tiny signed residual r —      *)
(* near-linear over the whole hull, so the piecewise fit stays inside  *)
(* the rounding interval *between* sampled float32 inputs too (the     *)
(* same property that makes sinpi's table residue-free).               *)
(*                                                                     *)
(* key layout: bits 0-1 quadrant q (k mod 4 for |x| = k*pi/2 +         *)
(* sr*r1), bit 2 the sign sr, bit 3 sign of x, bits 4-11 the table     *)
(* index N.  The residual r is signed; both sign groups are fitted,    *)
(* like the exp family's.                                              *)
(* ------------------------------------------------------------------ *)

let ph_limbs = 7 (* 7 x 30 = 210-bit window *)
let ph_frac = (30 * ph_limbs) - 2 (* fraction bits below the binary point *)

let trig_reduce x =
  let tbl = Parallel.Once.get Tables.two_over_pi in
  let a = Float.abs x in
  let m, ex = Float.frexp a in
  let dig = Float.to_int (Float.ldexp m 26) in
  let e = ex - 26 in
  if Float.ldexp (float_of_int dig) e <> a then
    invalid_arg "Reductions.trig_reduce: more than 26 significand bits";
  let limbs = Array.make ph_limbs 0 in
  for i = 0 to Tables.ph_chunks - 1 do
    let pos = e - (30 * (i + 1)) in
    (* pos >= 2: the contribution is a multiple of 4; pos + 56 < -ph_frac:
       entirely below the window. *)
    if pos < 2 && pos > -(ph_frac + 57) then begin
      let p = dig * tbl.(i) in
      let s = pos + ph_frac in
      if s >= 0 then begin
        let j = s / 30 and b = s mod 30 in
        limbs.(j) <- limbs.(j) + ((p land ((1 lsl (30 - b)) - 1)) lsl b);
        if j + 1 < ph_limbs then
          limbs.(j + 1) <- limbs.(j + 1) + ((p lsr (30 - b)) land 0x3FFFFFFF);
        if j + 2 < ph_limbs then limbs.(j + 2) <- limbs.(j + 2) + (p lsr (60 - b))
      end
      else begin
        let p = p lsr (-s) in
        limbs.(0) <- limbs.(0) + (p land 0x3FFFFFFF);
        limbs.(1) <- limbs.(1) + (p lsr 30)
      end
    end
  done;
  (* Normalize the lazy carries (each limb held < 3 * 2^30). *)
  let carry = ref 0 in
  for j = 0 to ph_limbs - 1 do
    let t = limbs.(j) + !carry in
    limbs.(j) <- t land 0x3FFFFFFF;
    carry := t lsr 30
  done;
  (* Top limb: 2 quadrant bits over 28 fraction bits. *)
  let q0 = (limbs.(ph_limbs - 1) lsr 28) land 3 in
  limbs.(ph_limbs - 1) <- limbs.(ph_limbs - 1) land 0xFFFFFFF;
  let half = limbs.(ph_limbs - 1) lsr 27 <> 0 in
  (* Round to the nearest quadrant: f >= 1/2 bumps k and flips the
     fraction to 1 - f (the reduced argument turns negative). *)
  let q = if half then (q0 + 1) land 3 else q0 in
  if half then begin
    let c = ref 1 in
    for j = 0 to ph_limbs - 1 do
      let m = if j = ph_limbs - 1 then 0xFFFFFFF else 0x3FFFFFFF in
      let t = m - limbs.(j) + !c in
      limbs.(j) <- t land 0x3FFFFFFF;
      c := t lsr 30
    done
  end;
  (* Assemble the top ~90 fraction bits into a double and scale by pi/2
     (correctly rounded pi, exactly halved). *)
  let hi = ref (ph_limbs - 1) in
  while !hi > 0 && limbs.(!hi) = 0 do
    decr hi
  done;
  let r1 =
    if limbs.(!hi) = 0 then 0.0
    else begin
      let l2 = if !hi >= 2 then limbs.(!hi - 2) else 0
      and l1 = if !hi >= 1 then limbs.(!hi - 1) else 0 in
      let t =
        Float.ldexp (float_of_int limbs.(!hi)) 60
        +. Float.ldexp (float_of_int l1) 30
        +. float_of_int l2
      in
      let f = Float.ldexp t ((30 * (!hi - 2)) - ph_frac) in
      f *. Float.ldexp (Parallel.Once.get Tables.pi_d) (-1)
    end
  in
  (* Second level: r1 = N*(pi/512) + r, Cody-Waite so N*hi is exact. *)
  let n = Float.to_int (Float.round (r1 *. Parallel.Once.get Tables.inv_pi_512)) in
  let cw : Tables.cody_waite = Parallel.Once.get Tables.pi_over_512 in
  let fn = float_of_int n in
  let r = r1 -. (fn *. cw.hi) -. (fn *. cw.lo) in
  let key =
    q
    lor ((if half then 1 else 0) lsl 2)
    lor ((if x < 0.0 then 1 else 0) lsl 3)
    lor (n lsl 4)
  in
  { S.r; key }

(* OC for the trig family.  With |x| = k*pi/2 + sr*r1 (sr = +-1 from
   key bit 2, q = k mod 4), r1 = N*(pi/512) + r, and components
   [sin_r; cos_r] evaluated at the signed residual r, the angle-sum
   identities rebuild
     u = sin r1 = cpn[N]*v0 + spn[N]*v1
     w = cos r1 = cpn[N]*v1 - spn[N]*v0
   (both table entries non-negative for N in [0, 128]) and then
     sin |x| = { sr*u; w; -sr*u; -w }.(q)
     cos |x| = { w; -sr*u; -w; sr*u }.(q)
     tan |x| = { sr*u/w; -sr*w/u }.(q mod 2)
   with sin x = sign(x)*sin|x|, cos x = cos|x|, tan x = sign(x)*tan|x|.
   Each OC is linear (or a quotient of linears) in (v0, v1) with mixed
   coefficient signs, so none is jointly monotone along the diagonal:
   all three specs set [oc_corners], and the §3.2 deduction probes box
   corners.  Axis-wise monotonicity (what corner probing needs) holds
   because each OC is linear along every axis-parallel segment, and a
   quotient's denominator (w >= cos(pi/4) - widening, or u bounded away
   from 0 by the worst-case closeness of a target value to a multiple
   of pi/2) cannot reach zero inside a contained box: a sign flip
   across the pole would land a corner outside any finite rounding
   interval, so the widening search backs off first. *)

let trig_signs key =
  ( (if key land 4 <> 0 then -1.0 else 1.0) (* sign sr of the level-1 residual *),
    if key land 8 <> 0 then -1.0 else 1.0 (* sign of x *) )

(* (sin r1, cos r1) from the component values at the residual. *)
let trig_uw key (v : float array) =
  let n = (key lsr 4) land 0xFF in
  let spn = (Parallel.Once.get Tables.sinpi_n).(n)
  and cpn = (Parallel.Once.get Tables.cospi_n).(n) in
  ((cpn *. v.(0)) +. (spn *. v.(1)), (cpn *. v.(1)) -. (spn *. v.(0)))

let sin_compensate rr (v : float array) =
  let sr, sx = trig_signs rr.S.key in
  let u, w = trig_uw rr.S.key v in
  let core =
    match rr.S.key land 3 with 0 -> sr *. u | 1 -> w | 2 -> -.(sr *. u) | _ -> -.w
  in
  sx *. core

let cos_compensate rr (v : float array) =
  let sr, _ = trig_signs rr.S.key in
  let u, w = trig_uw rr.S.key v in
  match rr.S.key land 3 with 0 -> w | 1 -> -.(sr *. u) | 2 -> -.w | _ -> sr *. u

let tan_compensate rr (v : float array) =
  let sr, sx = trig_signs rr.S.key in
  let u, w = trig_uw rr.S.key v in
  let core = if rr.S.key land 1 = 0 then sr *. (u /. w) else -.(sr *. (w /. u)) in
  sx *. core

(* Residual domain: |r| <= pi/1024, both signs (the rounding of r1 to
   the N grid).  The low end is nominal — residuals below it (or equal
   to zero) clamp into the smallest-magnitude sub-domain, exactly like
   the exp family's. *)
let trig_dom =
  ( Some (-0.0030680, -.Float.ldexp 1.0 (-40)),
    Some (Float.ldexp 1.0 (-40), 0.0030680) )
