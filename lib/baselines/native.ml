(* Mini-max comparator libraries (the paper's glibc/Intel/MetaLibm
   stand-ins, §4.1).

   Two variants share one code path:

   - [F32]: every arithmetic step and table entry is rounded to float32
     — a straightforward single-precision implementation, the analog of
     the float libms that Table 1 shows misrounding 1e5–1e8 inputs;
   - [F64]: the same structure in double with higher-degree polynomials
     — the analog of the double libms that misround only a handful.

   Both approximate the *real value* of f with near-minimax polynomials
   ({!Minimax}); neither knows anything about rounding intervals.  The
   contrast with the RLIBM functions is the paper's thesis.

   Overflow/underflow thresholds are those of the *implementation*
   precision (float32 for F32, double for F64), not of the target type:
   a repurposed double library saturates where double does, which is
   precisely why Table 2 shows it failing on hundreds of millions of
   posit inputs — posits saturate where doubles flush to zero or
   overflow to infinity. *)

module E = Oracle.Elementary
module Q = Rational

type mode = F32 | F64

(* Per-step rounding. *)
let rnd = function
  | F32 -> fun x -> Int32.float_of_bits (Int32.bits_of_float x)
  | F64 -> fun x -> x

let poly_degree = function F32 -> 3 | F64 -> 6

(* Implementation-precision saturation points. *)
type sat = { exp_hi : float; exp_lo : float; exp2_hi : float; exp2_lo : float; exp10_hi : float; exp10_lo : float }

let sat_of = function
  | F32 ->
      { exp_hi = 88.73; exp_lo = -103.98; exp2_hi = 128.0; exp2_lo = -150.0;
        exp10_hi = 38.54; exp10_lo = -45.16 }
  | F64 ->
      { exp_hi = 709.79; exp_lo = -745.2; exp2_hi = 1024.0; exp2_lo = -1075.0;
        exp10_hi = 308.26; exp10_lo = -323.7 }

(* f(q)/q as an oracle, for fitting odd functions with the r factor
   pulled out (Chebyshev nodes are never exactly zero). *)
let div_by_arg (f : E.fn) : E.fn =
 fun ~prec q ->
  match f ~prec q with
  | E.Exact e -> E.Exact (Q.div e q)
  | E.Approx b ->
      E.Approx (Oracle.Bigfloat.div ~prec:(prec + 60) b (Oracle.Bigfloat.of_dyadic q))

type family_tables = {
  exp2_j : float array;
  ln_f : float array;
  log2_f : float array;
  log10_f : float array;
  sinpi_n : float array;
  cospi_n : float array;
  sinh_n : float array;
  cosh_n : float array;
  ln2 : float;
  log10_2 : float;
  cw_exp : Funcs.Tables.cody_waite;
  cw_exp10 : Funcs.Tables.cody_waite;
  c_exp : float array;  (* e^r *)
  c_exp2 : float array;
  c_exp10 : float array;
  c_ln1p : float array;  (* ln(1+r)/r *)
  c_log2_1p : float array;
  c_log10_1p : float array;
  c_sinpi : float array;  (* sinpi(r)/r *)
  c_cospi : float array;
  c_sinh : float array;  (* sinh(r)/r *)
  c_cosh : float array;
}

let build mode =
  let r = rnd mode in
  let d = poly_degree mode in
  let tab a = Array.map r (Parallel.Once.get a) in
  let fit f lo hi = Array.map r (Minimax.interpolate f ~lo ~hi ~degree:d) in
  {
    exp2_j = tab Funcs.Tables.exp2_j;
    ln_f = tab Funcs.Tables.ln_f;
    log2_f = tab Funcs.Tables.log2_f;
    log10_f = tab Funcs.Tables.log10_f;
    sinpi_n = tab Funcs.Tables.sinpi_n;
    cospi_n = tab Funcs.Tables.cospi_n;
    sinh_n = tab Funcs.Tables.sinh_n;
    cosh_n = tab Funcs.Tables.cosh_n;
    ln2 = r (Parallel.Once.get Funcs.Tables.ln2_d);
    log10_2 = r (Parallel.Once.get Funcs.Tables.log10_2_d);
    cw_exp = Parallel.Once.get Funcs.Tables.ln2_over_64;
    cw_exp10 = Parallel.Once.get Funcs.Tables.log10_2_over_64;
    c_exp = fit E.exp (-0.0054182) 0.0054182;
    c_exp2 = fit E.exp2 (-0.0078125) 0.0078125;
    c_exp10 = fit E.exp10 (-0.0023526) 0.0023526;
    c_ln1p = fit (div_by_arg E.ln_1p) 1e-9 0.0078125;
    c_log2_1p = fit (div_by_arg E.log2_1p) 1e-9 0.0078125;
    c_log10_1p = fit (div_by_arg E.log10_1p) 1e-9 0.0078125;
    c_sinpi = fit (div_by_arg E.sinpi) 1e-9 (1.0 /. 512.0);
    c_cospi = fit E.cospi 0.0 (1.0 /. 512.0);
    c_sinh = fit (div_by_arg E.sinh) 1e-9 (1.0 /. 64.0);
    c_cosh = fit E.cosh 0.0 (1.0 /. 64.0);
  }

(* Domain-safe one-shot build: the correctness checker's sharded count
   loop may force these from any worker domain. *)
let tables_f32 = Parallel.Once.make (fun () -> build F32)
let tables_f64 = Parallel.Once.make (fun () -> build F64)

(* Rounded Horner. *)
let horner r coeffs x =
  let acc = ref coeffs.(Array.length coeffs - 1) in
  for i = Array.length coeffs - 2 downto 0 do
    acc := r (coeffs.(i) +. r (!acc *. x))
  done;
  !acc

type lib = { eval : string -> float -> float }

(** Build the comparator library.  [trig_int] is the target-type bound
    past which every representable input is an integer (a float library
    for that type special-cases it the same way). *)
let make mode ~trig_int =
  let tb = Parallel.Once.get (match mode with F32 -> tables_f32 | F64 -> tables_f64) in
  let s = sat_of mode in
  let r = rnd mode in
  (* The library's own range reductions, through the float32 specs. *)
  let reduce name = (Funcs.Specs.by_name name Funcs.Specs.float32).reduce in
  let log_reduce = reduce "ln" and sinpi_reduce = reduce "sinpi" in
  let cospi_reduce = reduce "cospi" and sinhcosh_reduce = reduce "sinh" in
  let exp_like ~hi ~lo ~inv_c ~(cw : Funcs.Tables.cody_waite) coeffs x =
    if Float.is_nan x then Float.nan
    else if x >= hi then infinity
    else if x <= lo then 0.0
    else begin
      let k = Float.to_int (Float.round (x *. inv_c)) in
      let fk = float_of_int k in
      let rr = r (r (x -. (fk *. cw.hi)) -. r (fk *. cw.lo)) in
      let q = k asr 6 and j = k land 63 in
      r (Serve.Kernel.pow2 q *. r (tb.exp2_j.(j) *. horner r coeffs rr))
    end
  in
  let log_like ~scale ~ftab coeffs x =
    if Float.is_nan x || x < 0.0 then Float.nan
    else if x = 0.0 then neg_infinity
    else if x = infinity then infinity
    else begin
      let red = log_reduce x in
      let j = red.key land 0xFF and e = (red.key lsr 8) - 2048 in
      let rr = r red.r in
      let p = r (horner r coeffs rr *. rr) in
      r (r (float_of_int e *. scale) +. r (ftab.(j) +. p))
    end
  in
  let sinpi_impl x =
    if not (Float.is_finite x) then Float.nan
    else if Float.abs x >= trig_int then 0.0
    else begin
      let red = sinpi_reduce x in
      let n = red.key land 0x1FF in
      let sg = if red.key land (1 lsl 9) <> 0 then -1.0 else 1.0 in
      let rr = r red.r in
      let vs = r (horner r tb.c_sinpi rr *. rr) and vc = horner r tb.c_cospi rr in
      sg *. r (r (tb.sinpi_n.(n) *. vc) +. r (tb.cospi_n.(n) *. vs))
    end
  in
  let cospi_impl x =
    if not (Float.is_finite x) then Float.nan
    else if Float.abs x >= trig_int then if Float.rem (Float.abs x) 2.0 = 1.0 then -1.0 else 1.0
    else begin
      let red = cospi_reduce x in
      let n' = red.key land 0x1FF in
      let sg = if red.key land (1 lsl 9) <> 0 then -1.0 else 1.0 in
      let rr = r red.r in
      let vs = r (horner r tb.c_sinpi rr *. rr) and vc = horner r tb.c_cospi rr in
      if n' = 0 then sg *. vc
      else sg *. r (r (tb.cospi_n.(n') *. vc) +. r (tb.sinpi_n.(n') *. vs))
    end
  in
  (* Past |x| ~ 80 the table runs out; e^-2|x| is far below one ulp, so
     sinh and cosh are e^|x|/2 there (what a real implementation does). *)
  let exp_for_big =
    exp_like ~hi:(s.exp_hi +. 0.70001) ~lo:neg_infinity ~inv_c:92.332482616893656877 ~cw:tb.cw_exp
      tb.c_exp
  in
  let sinh_impl x =
    if Float.is_nan x then Float.nan
    else begin
      let a = Float.abs x and sg = if x < 0.0 then -1.0 else 1.0 in
      if a >= 80.0 then sg *. r (0.5 *. exp_for_big a)
      else begin
        let red = sinhcosh_reduce x in
        let n = red.key land 0x1FFF in
        let rr = r red.r in
        let vs = r (horner r tb.c_sinh rr *. rr) and vc = horner r tb.c_cosh rr in
        sg *. r (r (tb.sinh_n.(n) *. vc) +. r (tb.cosh_n.(n) *. vs))
      end
    end
  in
  let cosh_impl x =
    if Float.is_nan x then Float.nan
    else begin
      let a = Float.abs x in
      if a >= 80.0 then r (0.5 *. exp_for_big a)
      else begin
        let red = sinhcosh_reduce x in
        let n = red.key land 0x1FFF in
        let rr = r red.r in
        let vs = r (horner r tb.c_sinh rr *. rr) and vc = horner r tb.c_cosh rr in
        r (r (tb.cosh_n.(n) *. vc) +. r (tb.sinh_n.(n) *. vs))
      end
    end
  in
  let eval name =
    match name with
    | "exp" ->
        exp_like ~hi:s.exp_hi ~lo:s.exp_lo ~inv_c:92.332482616893656877 ~cw:tb.cw_exp tb.c_exp
    | "exp2" ->
        exp_like ~hi:s.exp2_hi ~lo:s.exp2_lo ~inv_c:64.0
          ~cw:{ Funcs.Tables.hi = 0.015625; lo = 0.0 }
          tb.c_exp2
    | "exp10" ->
        exp_like ~hi:s.exp10_hi ~lo:s.exp10_lo ~inv_c:212.60335893188592315 ~cw:tb.cw_exp10
          tb.c_exp10
    | "ln" -> log_like ~scale:tb.ln2 ~ftab:tb.ln_f tb.c_ln1p
    | "log2" -> log_like ~scale:1.0 ~ftab:tb.log2_f tb.c_log2_1p
    | "log10" -> log_like ~scale:tb.log10_2 ~ftab:tb.log10_f tb.c_log10_1p
    | "sinpi" -> sinpi_impl
    | "cospi" -> cospi_impl
    | "sinh" -> sinh_impl
    | "cosh" -> cosh_impl
    | _ -> invalid_arg ("Native.make: unknown function " ^ name)
  in
  { eval }

(** Pattern-level comparator for one target. *)
let eval_pattern mode (t : Funcs.Specs.target) name =
  let lib = make mode ~trig_int:t.trig_int in
  let f = lib.eval name in
  let module T = (val t.repr) in
  fun pat -> T.of_double (f (T.to_double pat))
