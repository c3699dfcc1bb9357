(* The zero-allocation serving kernel: one monomorphic evaluation plan
   per (function, representation, rounding mode).

   The scalar run-time path ({!Rlibm.Generator.eval_pattern}) is a chain
   of closures over boxed floats: the special-case probe returns an
   option, the reduction returns a mixed float/int record, every
   piecewise evaluator is an indirect call with a float argument, and
   the final rounding crosses a module boundary with a float.  On the
   non-flambda compiler each of those boundaries boxes, so a batch call
   allocates several minor-heap words per element.

   A [plan] flattens that chain into data: the special-region
   thresholds, the range-reduction constants, the flat coefficient and
   compensation tables, and the output format's rounding parameters all
   sit in one record, and the evaluation is three top-level functions
   ([stage1] -> [eval_piece] -> [compose]) whose call boundaries carry
   only ints (plus a preallocated [float array] scratch for the reduced
   input and component values — float array slots are unboxed storage,
   so floats cross the stage boundaries without boxing).  64-bit double
   patterns cross as two 32-bit int halves.  Every float intermediate is
   local to one function body, where the Closure-mode backend keeps it
   in a register.

   Bit-identity contract: for every input pattern the plan either takes
   the fast path or bails to [fallback], which IS the scalar path.  The
   fast path runs the same range reduction and output compensation as
   the scalar chain — {!reduce} and {!compensate} below are the one
   definition both use — and its decode, polynomial and rounding steps
   replicate the scalar chain's operation order.  The fast path is taken
   only outside the special-case regions, so specials stay bit-identical
   by construction and the steady-state path allocates nothing. *)

type shape =
  | S0123  (* terms 0,1,2,3: dense cubic *)
  | S123  (* terms 1,2,3: odd-anchored cubic (log family) *)
  | S135  (* terms 1,3,5: odd polynomial in r, Horner in r^2 *)
  | S024  (* terms 0,2,4: even polynomial in r, Horner in r^2 *)

(* One sign group of a piecewise table: {!Rlibm.Splitting.scheme} with
   the int64 hull bounds split into 32-bit halves (an unsigned 64-bit
   compare in native ints), plus the row-major coefficient matrix. *)
type pgroup = {
  nbits : int;
  shift : int;
  lo_hi : int;  (* high 32 bits of the hull's low-end raw double bits *)
  lo_lo : int;
  hi_hi : int;
  hi_lo : int;
  nt : int;  (* terms per row *)
  coeffs : float array;  (* (2^nbits) * nt, row-major *)
}

type piece = {
  shape : shape;
  neg : pgroup option;
  pos : pgroup option;
}

(* Progressive tier (RLIBM-PROG): the serving coefficient prefix of each
   piece, certificate-gated.  Plain ints and float arrays only — this
   library must stay independent of rlibm, so Funcs.Kernels lowers
   Rlibm.Prog certificates into this shape.

   The certificate is folded into the table: one *dense* prefix row per
   extended sub-domain bucket (the piece's splitting index extended by
   the certificate's extra low bits), holding the first [tk] of the full
   row's coefficients when the generator certified that every enumerated
   input of the bucket keeps its degree-[tk] prefix value inside the
   merged rounding interval — and all-NaN otherwise.  The prefix Horner
   then doubles as the certificate probe: NaN poisons the result, and a
   NaN prefix value means "uncertified bucket", sending the element to
   the full row ([eval_piece]) — never a wrong answer, because a
   certified prefix composes to the same rounded output as the full
   polynomial and a miss escalates instead of deciding.  This costs one
   float self-compare on the fast path where a separate bitset would
   cost an extra load, mask and branch. *)
type tcert = {
  t_shift : int;  (* scheme shift minus the certificate's extra bits *)
  t_mask : int;  (* 2^(nbits + ext) - 1: extended-bucket index mask *)
  t_coeffs : float array;  (* 2^(nbits + ext) dense rows of tk coeffs *)
}

(* Certs are non-optional so the hot loop loads fields directly (no
   option match per call): a side whose sign group is absent carries an
   empty dummy that is never consulted — the group test short-circuits
   first. *)
type tpiece = {
  tk : int;  (* serving prefix length, 1 <= tk < nt *)
  tneg : tcert;
  tpos : tcert;
}

(* Special-case region probe, mirroring the decision structure of the
   {!Funcs.Specs} special builders.  Firing sends the input to the
   scalar fallback; the probe must therefore cover (at least) every
   input the spec's [special] maps to [Some]. *)
type check =
  | Chk_log  (* x <= 0 (log family poles and NaN region) *)
  | Chk_signed of { hi : float; lo : float; snap : float }
      (* x >= hi || x <= lo || |x| <= snap  (exp family, expm1) *)
  | Chk_abs of { hi : float; snap : float }
      (* |x| >= hi || |x| <= snap  (sinh/cosh/tanh/sinpi/cospi) *)
  | Chk_log1p of { snap : float }  (* x <= -1 || |x| <= snap *)

(* Range reduction + output compensation, one constructor per family
   ({!reduce} and {!compensate} interpret it).  A spec's family shares
   the {!Funcs.Tables} arrays; a plan's are flat copies it owns (see
   {!clone}), so pinned per-domain plans share no mutable or cache-hot
   structure. *)
type family =
  | Log of { escale : float; f_tbl : float array; add_one : bool }
      (* ln/log2/log10/log1p: y = e*escale + f_tbl[j] + v0. *)
  | Exp of { inv_c : float; cw_hi : float; cw_lo : float; t2 : float array; minus_one : bool }
      (* exp/exp2/exp10/expm1: Cody-Waite reduction, y = 2^q*(t2[j]*v0).
         exp2 uses inv_c = 64, cw = (1/64, 0): x - fk/64 is exact, and
         subtracting fk*0.0 afterwards cannot change the sign or value
         of the result. *)
  | Tanh of { inv_c : float; cw_hi : float; cw_lo : float; t2 : float array }
      (* tanh via w = e^(2|x|): y = s * (w-1)/(w+1) *)
  | Sinpi of { spn : float array; cpn : float array }
  | Cospi of { spn : float array; cpn : float array }
  | Sinh of { sh : float array; ch : float array }
  | Cosh of { sh : float array; ch : float array }

type plan = {
  (* identity (display / dispatch only) *)
  name : string;
  tname : string;
  mode : Fp.Rounding_mode.t;
  (* input format decode *)
  width : int;
  hw32 : bool;
      (* float32: the doubles pipeline uses the hardware single<->double
         casts (what Fp.Fp32.of_double/to_double do at RNE), identical
         to the integer path on finite values and NaN-payload-exact *)
  hw_rne : bool;
      (* hw32 && mode = RNE: output rounding is the hardware
         double->single cast instead of {!round_bits}.  The cast rounds
         the finite double y in one instruction exactly as round_bits
         does at RNE — overflow lands on the correct infinity, underflow
         on the correctly rounded subnormal, -0.0 on the sign pattern —
         with no range test or mode match, and the fast path never
         rounds a NaN.  Precomputed as a bool because the per-call test
         must be one load, not a variant compare. *)
  i_mb : int;
  i_emask : int;
  i_mmask : int;
  i_sbit : int;
  i_dexp_off : int;  (* 1023 - bias: target exponent field -> double's *)
  i_sub_scale : float;  (* 2^(emin - mb): subnormal significand scale *)
  check : check;
  family : family;
  pieces : piece array;  (* length 1 (log/exp) or 2 (trig/hyperbolic) *)
  tier : tpiece array option;
      (* aligned with [pieces]; [Some] only when every piece has a
         certified serving prefix (all-or-nothing across pieces, the
         contract {!Rlibm.Verifier.classify} mirrors) *)
  (* output rounding (replicates Fp.Ieee.of_double for this fmt/mode) *)
  o_mb : int;
  o_mmask : int;
  o_sbit : int;
  o_bias : int;
  o_emin : int;
  o_emax : int;
  o_nan : int;
  o_inf_pos : int;
  o_inf_neg : int;
  o_maxf_pos : int;  (* max_finite_pattern, per sign *)
  o_maxf_neg : int;
  (* scalar path for special-region and non-finite inputs *)
  fallback : int -> int;
}

(* Scratch layout (a per-shard [float array] of length 4):
   0 = reduced input r;  1 = component value v0;  2 = v1;  3 = y. *)
let scratch_len = 4

let scratch () = Array.make scratch_len 0.0

(* ------------------------------------------------------------------ *)
(* Output rounding: Fp.Ieee.of_double over the double's raw bits,       *)
(* passed as two 32-bit halves so no float crosses the call boundary.   *)
(* ------------------------------------------------------------------ *)

(* Ieee.overflow_pattern: where an out-of-range magnitude lands depends
   on the rounding mode, and this function rounds under two different
   modes (the plan's, and RNE for the input leg of the doubles
   pipeline), so the decision stays dynamic. *)
let overflow (p : plan) mode neg =
  let to_inf =
    match mode with
    | Fp.Rounding_mode.Rne | Fp.Rounding_mode.Rna -> true
    | Fp.Rounding_mode.Up -> not neg
    | Fp.Rounding_mode.Down -> neg
    | Fp.Rounding_mode.Zero | Fp.Rounding_mode.Odd -> false
  in
  if to_inf then (if neg then p.o_inf_neg else p.o_inf_pos)
  else if neg then p.o_maxf_neg
  else p.o_maxf_pos

(* Ieee.of_double's significand/guard/sticky rounding for every finite
   or non-finite double; {!round_bits} sends it only the results outside
   the target's normal range. *)
let round_bits_rare (p : plan) mode hi lo =
  let neg = hi land 0x8000_0000 <> 0 in
  let sign = if neg then p.o_sbit else 0 in
  let de = (hi lsr 20) land 0x7FF in
  let dm = ((hi land 0xF_FFFF) lsl 32) lor lo in
  if de = 0x7FF then (if dm = 0 then (if neg then p.o_inf_neg else p.o_inf_pos) else p.o_nan)
  else if de = 0 && dm = 0 then sign (* signed zero *)
  else if de = 0 then
    (* A subnormal double sits far below half of any target's smallest
       subnormal, but is nonzero. *)
    if Fp.Rounding_mode.round_up ~mode ~neg ~odd:false ~inexact:true ~half_cmp:(-1) then
      sign lor 1
    else sign
  else begin
    let m53 = dm lor (1 lsl 52) in
    let e = de - 1023 in
    if e > p.o_emax + 1 then overflow p mode neg
    else begin
      let prec = if e >= p.o_emin then p.o_mb + 1 else p.o_mb + 1 + (e - p.o_emin) in
      if prec <= 0 then begin
        let half_cmp =
          if e < p.o_emin - p.o_mb - 1 then -1
          else if m53 < 1 lsl 52 then -1
          else if m53 > 1 lsl 52 then 1
          else 0
        in
        if Fp.Rounding_mode.round_up ~mode ~neg ~odd:false ~inexact:true ~half_cmp then
          sign lor 1
        else sign
      end
      else begin
        (* prec <= 26 < 53 for every instantiated format *)
        let shift = 53 - prec in
        let m = m53 lsr shift in
        let rest = m53 land ((1 lsl shift) - 1) in
        let inexact = rest <> 0 in
        let twice = rest lsl 1 in
        let half = 1 lsl shift in
        let half_cmp = if twice < half then -1 else if twice > half then 1 else 0 in
        let up = Fp.Rounding_mode.round_up ~mode ~neg ~odd:(m land 1 = 1) ~inexact ~half_cmp in
        let m = if up then m + 1 else m in
        (* Ieee.finish *)
        let carry = m = 1 lsl prec in
        let m = if carry then m lsr 1 else m in
        let scale = (e - prec + 1) + if carry then 1 else 0 in
        if m lsr p.o_mb > 0 then begin
          let unbiased = p.o_mb + scale in
          if unbiased > p.o_emax then overflow p mode neg
          else sign lor ((unbiased + p.o_bias) lsl p.o_mb) lor (m land p.o_mmask)
        end
        else sign lor (m lsl (scale - (p.o_emin - p.o_mb)))
      end
    end
  end

(* A result in the target's normal range (o_emin <= e <= o_emax), the
   common case, rounds by {!Fp.Ieee.round_normal}'s rule: rebias the
   double to the target exponent, t = ((e + o_bias) lsl 52) lor
   mantissa, add a mode- and sign-dependent bias below the kept bits,
   and shift by sh = 52 - o_mb.  The rule is repeated here rather than
   called because the dev profile compiles with -opaque, which keeps
   every cross-module call out of line.  Up/Down pick their bias with
   the sign mask instead of a branch; the mode is a plain match per
   call, constant within a batch, so it predicts perfectly.  Zero,
   non-finite, subnormal and overflowing results take
   {!round_bits_rare}.  The fast path only ever rounds finite doubles
   (NaN results come out of the scalar fallback), and the fp32 RNE
   hardware cast agrees with both paths on every finite double. *)
let round_bits (p : plan) mode hi lo =
  let e = ((hi lsr 20) land 0x7FF) - 1023 in
  if e >= p.o_emin && e <= p.o_emax then begin
    let nmask = -(hi lsr 31) (* all ones for a negative double, else 0 *) in
    let sh = 52 - p.o_mb in
    let low = (1 lsl sh) - 1 in
    let t = ((e + p.o_bias) lsl 52) lor ((hi land 0xF_FFFF) lsl 32) lor lo in
    let mag =
      match mode with
      | Fp.Rounding_mode.Rne -> (t + (low lsr 1) + ((t lsr sh) land 1)) lsr sh
      | Fp.Rounding_mode.Rna -> (t + (low lsr 1) + 1) lsr sh
      | Fp.Rounding_mode.Up -> (t + (low land lnot nmask)) lsr sh
      | Fp.Rounding_mode.Down -> (t + (low land nmask)) lsr sh
      | Fp.Rounding_mode.Zero -> t lsr sh
      | Fp.Rounding_mode.Odd -> (t lsr sh) lor (((t land low) + low) lsr sh)
    in
    (p.o_sbit land nmask) lor mag
  end
  else round_bits_rare p mode hi lo

(* ------------------------------------------------------------------ *)
(* Range reduction RR_H and output compensation OC_H of the flat        *)
(* families.  These two functions are the only definition of that       *)
(* arithmetic: the generator's {!Rlibm.Spec} closures run them too      *)
(* (Funcs.Specs derives [reduce]/[compensate] from the family), so the  *)
(* tables are fitted against exactly the code that serves them.  Both   *)
(* pass floats through the scratch: x arrives in s.(0), and an argument *)
(* float would box at the call boundary on the non-flambda compiler.    *)
(* Each family packs what OC needs (table index, scale, signs) into the *)
(* returned key; every OC is monotone in the component values (table    *)
(* entries are non-negative, §3.2; §5's redesign achieves it for cospi).*)
(* ------------------------------------------------------------------ *)

(** [reduce f s] reduces x = s.(0) in place to r and returns the packed
    compensation key (>= 0).  x must be finite and outside the spec's
    special regions; the log family additionally needs its argument
    (1 + x for log1p) to be a positive normal double, which every
    in-domain input of a <= 32-bit target is. *)
let[@inline] reduce (f : family) (s : float array) =
  let x = Array.unsafe_get s 0 in
  match f with
  | Log f ->
      (* x = 2^e * m, m in [1,2); F = 1 + j/128 from m's top 7 mantissa
         bits; r = (m - F)/F in [0, 2^-7); then
           log(x) = e*log(2) + log(F) + log1p(r).
         Decomposed on the raw bits: the rescaled significand is the
         mantissa field under exponent 1023 and e = biased_exponent -
         1023.  Exact except for the final division by F. *)
      let z = if f.add_one then 1.0 +. x else x in
      let zb = Int64.bits_of_float z in
      let zh = Int64.to_int (Int64.shift_right_logical zb 32) in
      let be = zh lsr 20 in
      let j = (zh lsr 13) land 0x7F in
      let m2 =
        Int64.float_of_bits
          (Int64.logor 0x3FF0_0000_0000_0000L (Int64.logand zb 0xF_FFFF_FFFF_FFFFL))
      in
      let fj = 1.0 +. (float_of_int j /. 128.0) in
      Array.unsafe_set s 0 ((m2 -. fj) /. fj);
      j lor ((be - 1023 + 2048) lsl 8)
  | Exp f ->
      (* k = round(x * 64/log_b 2); q = k/64, j = k mod 64;
           b^x = 2^q * 2^(j/64) * b^r,   r = x - k*log_b(2)/64,
         the constant split Cody-Waite style so k*cw_hi is exact. *)
      let k = Float.to_int (Float.round (x *. f.inv_c)) in
      let fk = float_of_int k in
      Array.unsafe_set s 0 (x -. (fk *. f.cw_hi) -. (fk *. f.cw_lo));
      (k land 63) lor (((k asr 6) + 2048) lsl 8)
  | Tanh f ->
      (* The exp reduction on t = 2|x| (exact doubling), input sign in
         bit 22. *)
      let t = 2.0 *. Float.abs x in
      let k = Float.to_int (Float.round (t *. f.inv_c)) in
      let fk = float_of_int k in
      Array.unsafe_set s 0 (t -. (fk *. f.cw_hi) -. (fk *. f.cw_lo));
      (k land 63) lor (((k asr 6) + 2048) lsl 8) lor ((if x < 0.0 then 1 else 0) lsl 22)
  | Sinpi _ ->
      (* §2: |x| = 2I + J; J = K + L; L' = L or 1-L (1-L is exact by
         Sterbenz, sinpi(L) = sinpi(1-L)); L' = N/512 + R, N <= 255;
         sign S = sign(x) * (-1)^K in bit 9.  x = 0 is always special,
         so the sign test needs no signed-zero case. *)
      let z = Float.abs x in
      let jj = z -. (2.0 *. Float.of_int (Float.to_int (z /. 2.0))) in
      let jj = if jj < 0.0 then jj +. 2.0 else jj in
      let k = if jj >= 1.0 then 1 else 0 in
      let l = jj -. float_of_int k in
      let l' = if l > 0.5 then 1.0 -. l else l in
      let n0 = Float.to_int (l' *. 512.0) in
      let n = if n0 > 255 then 255 else n0 in
      Array.unsafe_set s 0 (l' -. (float_of_int n /. 512.0));
      let sneg = x < 0.0 <> (k = 1) in
      n lor ((if sneg then 1 else 0) lsl 9)
  | Cospi _ ->
      (* §5: after folding to L' in [0, 1/2], write L' = N'/512 - R with
         R in [0, 1/512] (N' in [1, 256], rounded up to the next table
         point; N'/512 - L' is exact), or R = L' with N' = 0 below 2^-10,
         so every compensation coefficient stays non-negative. *)
      let z = Float.abs x in
      let jj = z -. (2.0 *. Float.of_int (Float.to_int (z /. 2.0))) in
      let jj = if jj < 0.0 then jj +. 2.0 else jj in
      let k = if jj >= 1.0 then 1 else 0 in
      let l = jj -. float_of_int k in
      let m1 = l > 0.5 in
      let l' = if m1 then 1.0 -. l else l in
      let n0 = Float.to_int (l' *. 512.0) in
      let n = if n0 > 255 then 255 else n0 in
      let sbit = if (k = 1) <> m1 then 1 lsl 9 else 0 in
      if n = 0 && l' < 0x1p-10 then begin
        Array.unsafe_set s 0 l';
        sbit
      end
      else begin
        let c = Float.to_int (Float.ceil (l' *. 512.0)) in
        let c = if float_of_int c /. 512.0 = l' then c + 1 else c in
        let n' = if c > 256 then 256 else c in
        Array.unsafe_set s 0 ((float_of_int n' /. 512.0) -. l');
        n' lor sbit
      end
  | Sinh _ | Cosh _ ->
      (* |x| = N/64 + R, R in [0, 1/64), exact; input sign in bit 13. *)
      let z = Float.abs x in
      let n = Float.to_int (z *. 64.0) in
      Array.unsafe_set s 0 (z -. (float_of_int n /. 64.0));
      n lor ((if x < 0.0 then 1 else 0) lsl 13)

(** [pow2 q] is 2^q: exact bit assembly for q in [-1022, 1023] (every
    in-domain input), ldexp beyond. *)
let[@inline] pow2 q =
  if q >= -1022 && q <= 1023 then
    Int64.float_of_bits (Int64.shift_left (Int64.of_int (q + 1023)) 52)
  else Float.ldexp 1.0 q

(** [compensate f s aux] writes OC(v0 = s.(1), v1 = s.(2)) for the key
    [aux] that {!reduce} returned into s.(3).  Components are ordered
    [sinpi_r; cospi_r] for sinpi/cospi and [sinh_r; cosh_r] for
    sinh/cosh. *)
let[@inline] compensate (f : family) (s : float array) aux =
  match f with
  | Log f ->
      (* e*escale + tbl[j] + log1p(r); escale = ln(2), 1, or log10(2) —
         multiplying the exact integer e by 1.0 is exact. *)
      let j = aux land 0xFF in
      let e = (aux lsr 8) - 2048 in
      Array.unsafe_set s 3
        ((float_of_int e *. f.escale) +. Array.unsafe_get f.f_tbl j +. Array.unsafe_get s 1)
  | Exp f ->
      (* 2^q * (T2[j] * b^r), minus one for expm1 (exact by Sterbenz when
         the scaled value lands in [1/2, 2], absorbed by Algorithm 2
         elsewhere). *)
      let j = aux land 0xFF in
      (* 2^q first: keeps t2[j]*v0 out of a register live across the
         ldexp call (a spill on the hot path). *)
      let pw = pow2 ((aux lsr 8) - 2048) in
      let y = pw *. (Array.unsafe_get f.t2 j *. Array.unsafe_get s 1) in
      Array.unsafe_set s 3 (if f.minus_one then y -. 1.0 else y)
  | Tanh f ->
      (* tanh(|x|) = (W - 1)/(W + 1) with W = e^(2|x|): increasing in W. *)
      let j = aux land 0xFF in
      let sgn = if aux land (1 lsl 22) <> 0 then -1.0 else 1.0 in
      let pw = pow2 (((aux land 0x3F_FFFF) lsr 8) - 2048) in
      let w = pw *. (Array.unsafe_get f.t2 j *. Array.unsafe_get s 1) in
      Array.unsafe_set s 3 (sgn *. ((w -. 1.0) /. (w +. 1.0)))
  | Sinpi f ->
      (* S * (spn[N]*cospi(R) + cpn[N]*sinpi(R)) *)
      let n = aux land 0x1FF in
      let sgn = if aux land (1 lsl 9) <> 0 then -1.0 else 1.0 in
      Array.unsafe_set s 3
        (sgn
        *. ((Array.unsafe_get f.spn n *. Array.unsafe_get s 2)
           +. (Array.unsafe_get f.cpn n *. Array.unsafe_get s 1)))
  | Cospi f ->
      (* S * (cpn[N']*cospi(R) + spn[N']*sinpi(R)), or S * cospi(R) for
         N' = 0. *)
      let n' = aux land 0x1FF in
      let sgn = if aux land (1 lsl 9) <> 0 then -1.0 else 1.0 in
      if n' = 0 then Array.unsafe_set s 3 (sgn *. Array.unsafe_get s 2)
      else
        Array.unsafe_set s 3
          (sgn
          *. ((Array.unsafe_get f.cpn n' *. Array.unsafe_get s 2)
             +. (Array.unsafe_get f.spn n' *. Array.unsafe_get s 1)))
  | Sinh f ->
      (* sinh(|x|) = sh[N]*cosh(R) + ch[N]*sinh(R), signed *)
      let n = aux land 0x1FFF in
      let sgn = if aux land (1 lsl 13) <> 0 then -1.0 else 1.0 in
      Array.unsafe_set s 3
        (sgn
        *. ((Array.unsafe_get f.sh n *. Array.unsafe_get s 2)
           +. (Array.unsafe_get f.ch n *. Array.unsafe_get s 1)))
  | Cosh f ->
      (* cosh(|x|) = ch[N]*cosh(R) + sh[N]*sinh(R) *)
      let n = aux land 0x1FFF in
      Array.unsafe_set s 3
        ((Array.unsafe_get f.ch n *. Array.unsafe_get s 2)
        +. (Array.unsafe_get f.sh n *. Array.unsafe_get s 1))

(* ------------------------------------------------------------------ *)
(* Stage 1: decode, special probe, range reduction.                    *)
(* Returns the packed compensation key (>= 0 for every in-domain        *)
(* input) or -1 when the input belongs to the scalar fallback.  The     *)
(* reduced input lands in s.(0).                                        *)
(* ------------------------------------------------------------------ *)

let stage1 (p : plan) (s : float array) pat =
  let e = (pat lsr p.i_mb) land p.i_emask in
  if e = p.i_emask then -1 (* NaN / infinity *)
  else begin
    (* Inline Ieee.to_double for a finite pattern: normals by exponent
       rebias and mantissa shift, subnormals by exact integer scaling.
       float32 takes the hardware widening instead — exact on every
       finite pattern, and one instruction instead of the assembly. *)
    let x =
      if p.hw32 then Int32.float_of_bits (Int32.of_int pat)
      else begin
        let m = pat land p.i_mmask in
        let mag =
          if e = 0 then float_of_int m *. p.i_sub_scale
          else
            Int64.float_of_bits
              (Int64.logor
                 (Int64.shift_left (Int64.of_int (e + p.i_dexp_off)) 52)
                 (Int64.shift_left (Int64.of_int m) (52 - p.i_mb)))
        in
        if pat land p.i_sbit = 0 then mag else -.mag
      end
    in
    let special =
      match p.check with
      | Chk_log -> x <= 0.0
      | Chk_signed c -> x >= c.hi || x <= c.lo || Float.abs x <= c.snap
      | Chk_abs c -> Float.abs x >= c.hi || Float.abs x <= c.snap
      | Chk_log1p c -> x <= -1.0 || Float.abs x <= c.snap
    in
    if special then -1
    else begin
      Array.unsafe_set s 0 x;
      reduce p.family s
    end
  end

(* ------------------------------------------------------------------ *)
(* Stage 2: piecewise polynomial at r = s.(0) into s.(dst).             *)
(* Operation order is identical to Piecewise.compile_group (which is    *)
(* itself op-order-identical to Piecewise.eval).                        *)
(* ------------------------------------------------------------------ *)

let eval_piece (pc : piece) (s : float array) dst =
  let r = Array.unsafe_get s 0 in
  let g = if r < 0.0 then pc.neg else pc.pos in
  match g with
  | None -> Array.unsafe_set s dst 0.0
  | Some g ->
      (* Splitting.index: clamp the raw bits into the hull (unsigned
         64-bit order via the int halves), then one shift and mask. *)
      let rb = Int64.bits_of_float r in
      let bh = Int64.to_int (Int64.shift_right_logical rb 32) in
      let bl = Int64.to_int (Int64.logand rb 0xFFFF_FFFFL) in
      let below = bh < g.lo_hi || (bh = g.lo_hi && bl < g.lo_lo) in
      let bh = if below then g.lo_hi else bh in
      let bl = if below then g.lo_lo else bl in
      let above = bh > g.hi_hi || (bh = g.hi_hi && bl > g.hi_lo) in
      let bh = if above then g.hi_hi else bh in
      let bl = if above then g.hi_lo else bl in
      let sh = g.shift in
      let idx =
        (if sh >= 32 then bh lsr (sh - 32) else (bh lsl (32 - sh)) lor (bl lsr sh))
        land ((1 lsl g.nbits) - 1)
      in
      let o = idx * g.nt in
      let c = g.coeffs in
      let v =
        match pc.shape with
        | S0123 ->
            Array.unsafe_get c o
            +. (r
                *. (Array.unsafe_get c (o + 1)
                   +. (r *. (Array.unsafe_get c (o + 2) +. (r *. Array.unsafe_get c (o + 3))))))
        | S123 ->
            r
            *. (Array.unsafe_get c o
               +. (r *. (Array.unsafe_get c (o + 1) +. (r *. Array.unsafe_get c (o + 2)))))
        | S135 ->
            let u = r *. r in
            r
            *. (Array.unsafe_get c o
               +. (u *. (Array.unsafe_get c (o + 1) +. (u *. Array.unsafe_get c (o + 2)))))
        | S024 ->
            let u = r *. r in
            Array.unsafe_get c o
            +. (u *. (Array.unsafe_get c (o + 1) +. (u *. Array.unsafe_get c (o + 2))))
      in
      Array.unsafe_set s dst v

(* ------------------------------------------------------------------ *)
(* Stage 3: output compensation and the final rounding.                 *)
(* ------------------------------------------------------------------ *)

let compose (p : plan) (s : float array) aux =
  compensate p.family s aux;
  if p.hw_rne then
    (* One hardware cast replaces round_bits: identical on the finite y
       the fast path produces (see the field's note). *)
    Int32.to_int (Int32.bits_of_float (Array.unsafe_get s 3)) land 0xFFFF_FFFF
  else begin
    let yb = Int64.bits_of_float (Array.unsafe_get s 3) in
    round_bits p p.mode
      (Int64.to_int (Int64.shift_right_logical yb 32))
      (Int64.to_int (Int64.logand yb 0xFFFF_FFFFL))
  end

(* ------------------------------------------------------------------ *)
(* The per-element step and pattern-level probes.                      *)
(* ------------------------------------------------------------------ *)

(** [eval p s pat] applies the plan to one input pattern, using [s] (a
    {!scratch}) for unboxed float hand-off between the stages. *)
let eval (p : plan) (s : float array) pat =
  let aux = stage1 p s pat in
  if aux < 0 then p.fallback pat
  else begin
    let pcs = p.pieces in
    eval_piece (Array.unsafe_get pcs 0) s 1;
    if Array.length pcs > 1 then eval_piece (Array.unsafe_get pcs 1) s 2;
    compose p s aux
  end

(* ------------------------------------------------------------------ *)
(* Tiered evaluation: certified prefix -> full polynomial -> scalar    *)
(* fallback.                                                           *)
(* ------------------------------------------------------------------ *)

(* Tier counter layout (a plain [int array] so the hot loop can count
   without allocating): 0 = certified-prefix evaluations, 1 = full-
   polynomial evaluations (certificate miss or no tier), 2 = scalar
   fallbacks (special / non-finite inputs).  The batched entry points
   ({!eval_counted}, {!eval_tiered_tp}) increment only their *rare*
   branches — the pipeline derives the dominant tier's count from the
   processed total at shard end, so the steady-state path pays nothing
   for accounting. *)
let c_prefix = 0

let c_full = 1
let c_fallback = 2
let n_counters = 3
let counters () = Array.make n_counters 0

(* One piece through the tier: prefix Horner over the dense certified
   rows, which doubles as the certificate probe — an uncertified bucket
   holds an all-NaN row, the NaN poisons the prefix value, and the
   [v <> v] self-compare routes the element to the full row.  Returns
   [true] with the prefix value written to [s.(dst)] on a certificate
   hit, [false] (nothing written) on a miss.  Prefix expressions are
   the leading [tk] coefficients in exactly {!Rlibm.Polyeval}'s
   operation order — bit-identical to what the certificates were
   checked against (multiplication commutes bit-exactly, so the kernel
   writes them in [eval_piece]'s style).  A certified row can never
   legitimately evaluate to NaN (its value lies inside a finite rounding
   interval), so the self-compare is exact, not heuristic. *)
let eval_piece_tiered (pc : piece) (tp : tpiece) (s : float array) dst =
  let r = Array.unsafe_get s 0 in
  (* Two scalar selects, not one tuple select: the Closure-mode backend
     would allocate the tuple on every call. *)
  let is_neg = r < 0.0 in
  let g = if is_neg then pc.neg else pc.pos in
  let tc = if is_neg then tp.tneg else tp.tpos in
  match g with
  | None ->
      (* Absent sign group: the full path also yields 0.0. *)
      Array.unsafe_set s dst 0.0;
      true
  | Some g ->
      let rb = Int64.bits_of_float r in
      let bh = Int64.to_int (Int64.shift_right_logical rb 32) in
      let bl = Int64.to_int (Int64.logand rb 0xFFFF_FFFFL) in
      let below = bh < g.lo_hi || (bh = g.lo_hi && bl < g.lo_lo) in
      let bh = if below then g.lo_hi else bh in
      let bl = if below then g.lo_lo else bl in
      let above = bh > g.hi_hi || (bh = g.hi_hi && bl > g.hi_lo) in
      let bh = if above then g.hi_hi else bh in
      let bl = if above then g.hi_lo else bl in
      (* Splitting.index_ext with the shift/mask precomputed at lowering
         time: keep the certificate's extra low bits. *)
      let sh = tc.t_shift in
      let eidx =
        (if sh >= 32 then bh lsr (sh - 32) else (bh lsl (32 - sh)) lor (bl lsr sh))
        land tc.t_mask
      in
      let c = tc.t_coeffs in
      let o = eidx * tp.tk in
      let v =
        match pc.shape with
        | S0123 ->
            if tp.tk = 1 then Array.unsafe_get c o
            else if tp.tk = 2 then Array.unsafe_get c o +. (r *. Array.unsafe_get c (o + 1))
            else
              Array.unsafe_get c o
              +. (r *. (Array.unsafe_get c (o + 1) +. (r *. Array.unsafe_get c (o + 2))))
        | S123 ->
            if tp.tk = 1 then r *. Array.unsafe_get c o
            else r *. (Array.unsafe_get c o +. (r *. Array.unsafe_get c (o + 1)))
        | S135 ->
            if tp.tk = 1 then r *. Array.unsafe_get c o
            else
              let u = r *. r in
              r *. (Array.unsafe_get c o +. (u *. Array.unsafe_get c (o + 1)))
        | S024 ->
            if tp.tk = 1 then Array.unsafe_get c o
            else
              let u = r *. r in
              Array.unsafe_get c o +. (u *. Array.unsafe_get c (o + 1))
      in
      if v <> v then false
      else begin
        Array.unsafe_set s dst v;
        true
      end

(** [eval_counted p s ctr pat] is {!eval} counting only the rare scalar
    fallbacks into [ctr] — pipelines over tier-less plans derive the
    full-polynomial count as [processed - fallbacks] at shard end. *)
let eval_counted (p : plan) (s : float array) (ctr : int array) pat =
  let aux = stage1 p s pat in
  if aux < 0 then begin
    Array.unsafe_set ctr c_fallback (Array.unsafe_get ctr c_fallback + 1);
    p.fallback pat
  end
  else begin
    let pcs = p.pieces in
    eval_piece (Array.unsafe_get pcs 0) s 1;
    if Array.length pcs > 1 then eval_piece (Array.unsafe_get pcs 1) s 2;
    compose p s aux
  end

(** [eval_tiered_tp p tp s ctr pat] is the tiered per-element step with
    the tier already in hand (hoisted out of the batch loop): when every
    piece's certificate bucket hits, the certified coefficient prefixes
    are evaluated instead of the full rows; any miss re-evaluates every
    piece in full ([eval]'s exact path), so the result is bit-identical
    to {!eval} on every input.  Counts only the rare branches
    (certificate-miss fulls and fallbacks) — the prefix count is
    [processed - full - fallbacks], derived at shard end. *)
let eval_tiered_tp (p : plan) (tp : tpiece array) (s : float array) (ctr : int array) pat =
  let aux = stage1 p s pat in
  if aux < 0 then begin
    Array.unsafe_set ctr c_fallback (Array.unsafe_get ctr c_fallback + 1);
    p.fallback pat
  end
  else begin
    let pcs = p.pieces in
    let fast =
      eval_piece_tiered (Array.unsafe_get pcs 0) (Array.unsafe_get tp 0) s 1
      && (Array.length pcs < 2
         || eval_piece_tiered (Array.unsafe_get pcs 1) (Array.unsafe_get tp 1) s 2)
    in
    if not fast then begin
      Array.unsafe_set ctr c_full (Array.unsafe_get ctr c_full + 1);
      eval_piece (Array.unsafe_get pcs 0) s 1;
      if Array.length pcs > 1 then eval_piece (Array.unsafe_get pcs 1) s 2
    end;
    compose p s aux
  end

(* Post-loop counter fixup: credit the dominant tier with everything the
   rare branches didn't claim. *)
let derive_counts ~tiered ~processed (ctr : int array) =
  if tiered then ctr.(c_prefix) <- ctr.(c_prefix) + processed - ctr.(c_full) - ctr.(c_fallback)
  else ctr.(c_full) <- ctr.(c_full) + processed - ctr.(c_fallback)

(** [eval_tiered p s ctr pat] is {!eval} through the plan's progressive
    tier (if any), with *exact* per-call tier accounting into [ctr] —
    the convenient scalar entry for verification and tests; batch loops
    use {!eval_tiered_tp}/{!eval_counted} + {!derive_counts} instead. *)
let eval_tiered (p : plan) (s : float array) (ctr : int array) pat =
  match p.tier with
  | None ->
      let fb = ctr.(c_fallback) in
      let out = eval_counted p s ctr pat in
      if ctr.(c_fallback) = fb then ctr.(c_full) <- ctr.(c_full) + 1;
      out
  | Some tp ->
      let fb = ctr.(c_fallback) and fu = ctr.(c_full) in
      let out = eval_tiered_tp p tp s ctr pat in
      if ctr.(c_fallback) = fb && ctr.(c_full) = fu then ctr.(c_prefix) <- ctr.(c_prefix) + 1;
      out

(** [is_fast p pat]: would [pat] take the allocation-free path?  (Used
    by workload generators and tests; not on the hot path itself.) *)
let is_fast (p : plan) pat =
  let e = (pat lsr p.i_mb) land p.i_emask in
  if e = p.i_emask then false
  else begin
    let m = pat land p.i_mmask in
    let mag =
      if e = 0 then float_of_int m *. p.i_sub_scale
      else
        Int64.float_of_bits
          (Int64.logor
             (Int64.shift_left (Int64.of_int (e + p.i_dexp_off)) 52)
             (Int64.shift_left (Int64.of_int m) (52 - p.i_mb)))
    in
    let x = if pat land p.i_sbit = 0 then mag else -.mag in
    not
      (match p.check with
      | Chk_log -> x <= 0.0
      | Chk_signed c -> x >= c.hi || x <= c.lo || Float.abs x <= c.snap
      | Chk_abs c -> Float.abs x >= c.hi || Float.abs x <= c.snap
      | Chk_log1p c -> x <= -1.0 || Float.abs x <= c.snap)
  end

(** [to_double p pat] widens an output pattern to the double the
    representation's [to_double] would produce (NaN payloads widen the
    hardware way: sign and payload preserved, which is what
    {!Fp.Fp32.to_double} does; the generic {!Fp.Ieee.to_double} returns
    a canonical NaN instead — callers comparing doubles must compare
    NaNs as a class, as the tests do). *)
let to_double (p : plan) pat =
  let e = (pat lsr p.i_mb) land p.i_emask in
  let m = pat land p.i_mmask in
  let neg = pat land p.i_sbit <> 0 in
  if e = p.i_emask then
    Int64.float_of_bits
      (Int64.logor
         (Int64.logor (if neg then Int64.min_int else 0L) 0x7FF0_0000_0000_0000L)
         (Int64.shift_left (Int64.of_int m) (52 - p.i_mb)))
  else begin
    let mag =
      if e = 0 then float_of_int m *. p.i_sub_scale
      else
        Int64.float_of_bits
          (Int64.logor
             (Int64.shift_left (Int64.of_int (e + p.i_dexp_off)) 52)
             (Int64.shift_left (Int64.of_int m) (52 - p.i_mb)))
    in
    if neg then -.mag else mag
  end

(* ------------------------------------------------------------------ *)
(* Cloning (per-domain table pinning).                                 *)
(* ------------------------------------------------------------------ *)

let clone_group (g : pgroup) = { g with coeffs = Array.copy g.coeffs }

let clone_piece (pc : piece) =
  { pc with neg = Option.map clone_group pc.neg; pos = Option.map clone_group pc.pos }

let clone_tcert (tc : tcert) = { tc with t_coeffs = Array.copy tc.t_coeffs }

let clone_tpiece (tp : tpiece) =
  { tp with tneg = clone_tcert tp.tneg; tpos = clone_tcert tp.tpos }

(** Deep-copy a family's compensation tables. *)
let clone_family = function
  | Log f -> Log { f with f_tbl = Array.copy f.f_tbl }
  | Exp f -> Exp { f with t2 = Array.copy f.t2 }
  | Tanh f -> Tanh { f with t2 = Array.copy f.t2 }
  | Sinpi f -> Sinpi { spn = Array.copy f.spn; cpn = Array.copy f.cpn }
  | Cospi f -> Cospi { spn = Array.copy f.spn; cpn = Array.copy f.cpn }
  | Sinh f -> Sinh { sh = Array.copy f.sh; ch = Array.copy f.ch }
  | Cosh f -> Cosh { sh = Array.copy f.sh; ch = Array.copy f.ch }

(** Deep-copy every flat table of a plan, so each worker domain can own
    a private replica (no shared cache lines on the hot loop). *)
let clone (p : plan) =
  {
    p with
    family = clone_family p.family;
    pieces = Array.map clone_piece p.pieces;
    tier = Option.map (Array.map clone_tpiece) p.tier;
  }
