(* Function specs: reduction exactness properties, table values,
   special-case boundaries, and exhaustive 16-bit generation. *)

module Q = Rational
module E = Oracle.Elementary
module S = Funcs.Specs
open Test_util

let st = rand 8

(* ------------------------------------------------------------------ *)
(* Tables.                                                             *)
(* ------------------------------------------------------------------ *)

let test_constants () =
  Alcotest.(check (float 0.0)) "ln2" (Float.log 2.0) (Parallel.Once.get Funcs.Tables.ln2_d);
  Alcotest.(check (float 0.0)) "pi" Float.pi (Parallel.Once.get Funcs.Tables.pi_d);
  Alcotest.(check (float 0.0)) "log10(2)" (Float.log10 2.0) (Parallel.Once.get Funcs.Tables.log10_2_d);
  (* Cody-Waite split reconstructs the constant to ~2^-85. *)
  let cw = Parallel.Once.get Funcs.Tables.ln2_over_64 in
  let exact = Q.mul_pow2 (Oracle.Bigfloat.to_rational (E.ln2 ~prec:140)) (-6) in
  let err = Q.abs (Q.sub (Q.add (Q.of_float cw.hi) (Q.of_float cw.lo)) exact) in
  Alcotest.(check bool) "cw sum accuracy" true (Q.compare err (Q.of_pow2 (-85)) < 0);
  (* hi has at most 32 significant bits: k*hi stays exact. *)
  Alcotest.(check bool)
    "cw hi short mantissa"
    true
    (Int64.logand (Fp.Fp64.bits cw.hi) 0x1FFFFFL = 0L)

let test_pow2 () =
  for q = -300 to 300 do
    Alcotest.(check (float 0.0)) "pow2" (Float.ldexp 1.0 q) (Serve.Kernel.pow2 q)
  done

let test_table_spot_values () =
  Alcotest.(check (float 0.0)) "2^(0/64)" 1.0 (Parallel.Once.get Funcs.Tables.exp2_j).(0);
  Alcotest.(check (float 0.0)) "2^(32/64)" (Float.sqrt 2.0) (Parallel.Once.get Funcs.Tables.exp2_j).(32);
  Alcotest.(check (float 0.0)) "ln(1)" 0.0 (Parallel.Once.get Funcs.Tables.ln_f).(0);
  Alcotest.(check (float 0.0)) "log2(1.5)" (Float.log2 1.5) (Parallel.Once.get Funcs.Tables.log2_f).(64);
  Alcotest.(check (float 0.0)) "sinpi(0)" 0.0 (Parallel.Once.get Funcs.Tables.sinpi_n).(0);
  Alcotest.(check (float 0.0)) "cospi(0)" 1.0 (Parallel.Once.get Funcs.Tables.cospi_n).(0);
  Alcotest.(check (float 0.0)) "sinpi(256/512)" 1.0 (Parallel.Once.get Funcs.Tables.sinpi_n).(256);
  Alcotest.(check (float 0.0)) "cospi(256/512)" 0.0 (Parallel.Once.get Funcs.Tables.cospi_n).(256)

(* ------------------------------------------------------------------ *)
(* Reduction exactness and reconstruction properties, through the      *)
(* spec closures the kernel descriptor derives (the one definition of  *)
(* the flat families' arithmetic).                                     *)
(* ------------------------------------------------------------------ *)

let reduce name = (S.by_name name S.float32).reduce

(* log: x = 2^e * F * (1+r) must reconstruct x exactly in rationals up
   to the single rounding in r = f/F. *)
let prop_log_reduce =
  QCheck.Test.make ~name:"log reduction reconstructs x" ~count:4000 QCheck.unit (fun () ->
      let x = Float.ldexp (1.0 +. Random.State.float st 1.0) (Random.State.int st 250 - 125) in
      let red = reduce "ln" x in
      let j = red.key land 0xFF and e = (red.key lsr 8) - 2048 in
      let f = Q.add Q.one (Q.of_ints j 128) in
      (* (x / 2^e / F) - 1 vs r: equal within one double rounding. *)
      let true_r = Q.sub (Q.div (Q.mul_pow2 (Q.of_float x) (-e)) f) Q.one in
      let err = Q.abs (Q.sub true_r (Q.of_float red.r)) in
      0 <= j && j < 128 && red.r >= 0.0
      && red.r < 0.0079
      && Q.compare err (Q.of_pow2 (-57)) <= 0)

(* exp2: r = x - k/64 is exact, and |r| <= 1/128.  Only the non-special
   domain reaches the reduction (|x| < 150 after the special filter). *)
let prop_exp2_reduce_exact =
  QCheck.Test.make ~name:"exp2 reduction is exact" ~count:4000 QCheck.unit (fun () ->
      let x32 = Int32.float_of_bits (Int32.bits_of_float (random_double ~max_exp:8 st)) in
      let red = reduce "exp2" x32 in
      let j = red.key land 0xFF and q = (red.key lsr 8) - 2048 in
      let k = (q * 64) + j in
      Q.equal (Q.of_float red.r) (Q.sub (Q.of_float x32) (Q.of_ints k 64))
      && Float.abs red.r <= 0.0078125)

(* sinpi: reduction identity sinpi(x) = S*(spn*cos + cpn*sin) checked
   against the oracle at full precision. *)
let prop_sinpi_reduce_identity =
  QCheck.Test.make ~name:"sinpi reduction identity" ~count:300 QCheck.unit (fun () ->
      let x = Float.ldexp (Random.State.float st 2.0 -. 1.0) (Random.State.int st 24) in
      let x = Int32.float_of_bits (Int32.bits_of_float x) in
      if Float.abs x >= Float.ldexp 1.0 23 then true
      else begin
        let red = reduce "sinpi" x in
        let n = red.key land 0x1FF in
        let s = if red.key land (1 lsl 9) <> 0 then -1.0 else 1.0 in
        (* Exact: x's sinpi equals s * sinpi(n/512 + r). *)
        let lhs = E.to_double E.sinpi (Q.of_float x) in
        let rhs_arg = Q.add (Q.of_ints n 512) (Q.of_float red.r) in
        let rhs = s *. E.to_double E.sinpi rhs_arg in
        0.0 <= red.r && red.r <= 1.0 /. 512.0 && ulps lhs rhs <= 1L
      end)

(* cospi (§5): identity with the monotone rewrite. *)
let prop_cospi_reduce_identity =
  QCheck.Test.make ~name:"cospi monotone reduction identity" ~count:300 QCheck.unit (fun () ->
      let x = Float.ldexp (Random.State.float st 2.0 -. 1.0) (Random.State.int st 24) in
      let x = Int32.float_of_bits (Int32.bits_of_float x) in
      if Float.abs x >= Float.ldexp 1.0 23 then true
      else begin
        let red = reduce "cospi" x in
        let n' = red.key land 0x1FF in
        let s = if red.key land (1 lsl 9) <> 0 then -1.0 else 1.0 in
        let lhs = E.to_double E.cospi (Q.of_float x) in
        let rhs =
          if n' = 0 then s *. E.to_double E.cospi (Q.of_float red.r)
          else s *. E.to_double E.cospi (Q.sub (Q.of_ints n' 512) (Q.of_float red.r))
        in
        0.0 <= red.r && red.r <= 1.0 /. 512.0 && ulps lhs rhs <= 1L
      end)

(* sinh/cosh: R = |x| - N/64 exact for representable inputs. *)
let prop_sinhcosh_reduce_exact =
  QCheck.Test.make ~name:"sinh/cosh reduction exact" ~count:4000 QCheck.unit (fun () ->
      let x = Float.ldexp (Random.State.float st 2.0 -. 1.0) (Random.State.int st 13 - 6) in
      let x = Int32.float_of_bits (Int32.bits_of_float x) in
      if Float.abs x >= 89.5 then true
      else begin
        let red = reduce "sinh" x in
        let n = red.key land 0x1FFF in
        Q.equal (Q.of_float red.r) (Q.sub (Q.of_float (Float.abs x)) (Q.of_ints n 64))
        && red.r >= 0.0 && red.r < 1.0 /. 64.0
      end)

(* ------------------------------------------------------------------ *)
(* Special-case thresholds: machine-check the derivations.             *)
(* ------------------------------------------------------------------ *)

let test_float32_thresholds () =
  let t = S.float32 in
  (* exp(exp_hi) must already exceed the float32 overflow boundary. *)
  let boundary = Q.mul (Q.of_pow2 127) (Q.sub (Q.of_int 2) (Q.of_pow2 (-24))) in
  let v = E.to_double E.exp (Q.of_float t.exp_hi) in
  Alcotest.(check bool) "exp_hi overflows" true (Q.compare (Q.of_float v) boundary >= 0);
  (* exp(exp_lo) must be at-or-below half the smallest subnormal. *)
  let v = E.to_double E.exp (Q.of_float t.exp_lo) in
  Alcotest.(check bool) "exp_lo underflows" true (Q.compare (Q.of_float v) (Q.of_pow2 (-150)) <= 0);
  let v = E.to_double E.exp10 (Q.of_float t.exp10_hi) in
  Alcotest.(check bool) "exp10_hi overflows" true (Q.compare (Q.of_float v) boundary >= 0);
  let v = E.to_double E.sinh (Q.of_float t.sinh_hi) in
  Alcotest.(check bool) "sinh_hi overflows" true (Q.compare (Q.of_float v) boundary >= 0)

(* The tiny-input short-circuits: provably below half an ulp. *)
let test_tiny_specials () =
  let x = Float.ldexp 1.0 (-13) in
  (* cosh(2^-13) - 1 = x^2/2 + ... < 2^-25 = half ulp of 1.0 in float32. *)
  let v = E.to_double E.cosh (Q.of_float x) in
  Alcotest.(check bool) "cosh tiny" true (v -. 1.0 < Float.ldexp 1.0 (-25));
  (* sinh(x) - x relative < 2^-25. *)
  let s = E.to_double E.sinh (Q.of_float x) in
  Alcotest.(check bool) "sinh tiny" true ((s -. x) /. x < Float.ldexp 1.0 (-25))

let test_specials_dispatch () =
  let t = S.float32 in
  let spec = S.by_name "exp" t in
  let module T = Fp.Fp32 in
  Alcotest.(check (option int)) "nan" (Some t.nan) (spec.special (T.of_double Float.nan));
  Alcotest.(check (option int)) "+inf" (Some t.pos_inf) (spec.special 0x7F800000);
  Alcotest.(check (option int)) "-inf -> 0" (Some 0) (spec.special 0xFF800000);
  Alcotest.(check (option int)) "big x" (Some t.pos_inf) (spec.special (T.of_double 100.0));
  Alcotest.(check (option int)) "tiny result" (Some 0) (spec.special (T.of_double (-110.0)));
  Alcotest.(check (option int)) "normal" None (spec.special (T.of_double 1.0));
  let lspec = S.by_name "ln" t in
  Alcotest.(check (option int)) "ln 0" (Some t.neg_inf) (lspec.special 0);
  Alcotest.(check (option int)) "ln -1" (Some t.nan) (lspec.special (T.of_double (-1.0)));
  let pspec = S.by_name "exp" S.posit32 in
  Alcotest.(check (option int)) "posit exp big -> maxpos" (Some 0x7FFFFFFF)
    (pspec.special (Posit.Posit32.of_double 100.0));
  Alcotest.(check (option int)) "posit exp small -> minpos" (Some 1)
    (pspec.special (Posit.Posit32.of_double (-100.0)));
  Alcotest.(check (option int)) "posit NaR" (Some 0x80000000) (pspec.special 0x80000000)

(* Batch evaluation agrees with the scalar path bit-for-bit. *)
let test_batch_agrees () =
  let g = Funcs.Libm.get S.bfloat16 "exp2" in
  let src = Array.init 65536 (fun i -> i) in
  let dst = Array.make 65536 0 in
  Funcs.Batch.eval_patterns g src dst;
  Array.iteri
    (fun i pat ->
      if dst.(i) <> Rlibm.Generator.eval_pattern g pat then Alcotest.failf "batch mismatch at %04x" pat)
    src;
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Batch.eval_patterns: length mismatch") (fun () ->
      Funcs.Batch.eval_patterns g src (Array.make 3 0));
  (* The compiled closure agrees with the reference path bit-for-bit. *)
  let c = Rlibm.Generator.compile g in
  for pat = 0 to 65535 do
    if c pat <> Rlibm.Generator.eval_pattern g pat then Alcotest.failf "compile mismatch %04x" pat
  done

(* Libm.get caches on the whole effective config: lp_warm can move the
   emitted tables, so a warm get after a cold one must generate anew
   rather than hand back the cold tables. *)
let test_cache_keyed_on_cfg () =
  let get cfg = Funcs.Libm.get ~cfg S.bfloat16 "exp2" in
  let cold = { Rlibm.Config.default with lp_warm = false } in
  let warm = { cold with lp_warm = true } in
  let g_cold = get cold and g_warm = get warm in
  Alcotest.(check bool) "cold and warm are separate entries" false (g_cold == g_warm);
  Alcotest.(check bool) "warm entry was generated warm" true
    (Option.get g_warm.Rlibm.Generator.stats.lp).lp_warm_mode;
  Alcotest.(check bool) "warm entry is reused" true (get warm == g_warm);
  Alcotest.(check bool) "no cfg = the default cfg" true
    (Funcs.Libm.get S.bfloat16 "exp2" == get Rlibm.Config.default)

(* ------------------------------------------------------------------ *)
(* Exhaustive 16-bit end-to-end generation: the soundness witness.     *)
(* ------------------------------------------------------------------ *)

let exhaustive_correct target name () =
  let g = Funcs.Libm.get target name in
  let module T = (val g.Rlibm.Generator.spec.repr) in
  (* Generation already validates every enumerated input; re-verify a
     stride of them independently against the oracle. *)
  let bad = ref 0 in
  for pat = 0 to 65535 do
    if pat mod 29 = 0 then begin
      let got = Rlibm.Generator.eval_pattern g pat in
      let want =
        match g.spec.special pat with
        | Some y -> y
        | None ->
            Oracle.Elementary.correctly_rounded ~round:T.round_rational g.spec.oracle
              (T.to_rational pat)
      in
      if not (pattern_value_equal (module T) got want) then incr bad
    end
  done;
  Alcotest.(check int) (name ^ " misrounds") 0 !bad

let fingerprint t name () = Rlibm.Generator.tables_fingerprint (Funcs.Libm.get t name)

let () =
  Alcotest.run "funcs"
    [
      ( "tables",
        [
          Alcotest.test_case "constants" `Quick test_constants;
          Alcotest.test_case "pow2" `Quick test_pow2;
          Alcotest.test_case "spot values" `Quick test_table_spot_values;
        ] );
      qsuite "reductions"
        [
          prop_log_reduce;
          prop_exp2_reduce_exact;
          prop_sinpi_reduce_identity;
          prop_cospi_reduce_identity;
          prop_sinhcosh_reduce_exact;
        ];
      ( "specials",
        [
          Alcotest.test_case "float32 thresholds" `Quick test_float32_thresholds;
          Alcotest.test_case "tiny short-circuits" `Quick test_tiny_specials;
          Alcotest.test_case "dispatch" `Quick test_specials_dispatch;
        ] );
      ("batch", [ Alcotest.test_case "agrees with scalar" `Slow test_batch_agrees ]);
      ("libm", [ Alcotest.test_case "cache keyed on the config" `Quick test_cache_keyed_on_cfg ]);
      ( "exhaustive-16bit",
        [
          Alcotest.test_case "bfloat16 exp2" `Slow (exhaustive_correct S.bfloat16 "exp2");
          Alcotest.test_case "bfloat16 log2" `Slow (exhaustive_correct S.bfloat16 "log2");
          Alcotest.test_case "float16 exp" `Slow (exhaustive_correct S.float16 "exp");
          Alcotest.test_case "bfloat16 sinpi" `Slow (exhaustive_correct S.bfloat16 "sinpi");
        ] );
      ( "exhaustive-16bit-extensions",
        [
          Alcotest.test_case "bfloat16 tanh" `Slow (exhaustive_correct S.bfloat16 "tanh");
          Alcotest.test_case "bfloat16 expm1" `Slow (exhaustive_correct S.bfloat16 "expm1");
          Alcotest.test_case "float16 log1p" `Slow (exhaustive_correct S.float16 "log1p");
        ] );
      pinned_suite "pinned"
        [
          ("bfloat16 exp2", "fnv1a:15b3f1a67719a70f", fingerprint S.bfloat16 "exp2");
          ("bfloat16 log2", "fnv1a:1df4a58e8a47f4d2", fingerprint S.bfloat16 "log2");
          ("bfloat16 sinpi", "fnv1a:34bb7ed96194fb56", fingerprint S.bfloat16 "sinpi");
          ("bfloat16 tanh", "fnv1a:22dea0a5c6e31580", fingerprint S.bfloat16 "tanh");
          ("bfloat16 expm1", "fnv1a:2945010521de3778", fingerprint S.bfloat16 "expm1");
          ("float16 exp", "fnv1a:37d1b51709575bf5", fingerprint S.float16 "exp");
          ("float16 log1p", "fnv1a:156348b64a5aff37", fingerprint S.float16 "log1p");
        ];
    ]
