(* The serving path's correctness bar (ISSUE 7): kernels bit-identical
   to the scalar path, proven exhaustively on the 16-bit targets across
   every standard rounding mode, differentially on float32, with the
   jobs-1/2/4 determinism and zero-allocation contracts as machine
   checks.

   Default tier: bfloat16 x log2 and float16 x exp across all five
   standard modes on strided inputs.  RLIBM_EXHAUSTIVE=1 (the
   @exhaustive alias / make check-full): both targets x both functions
   x all five modes over every one of the 65536 patterns. *)

module K = Serve.Kernel
module R = Serve.Run
module W = Serve.Workload
module G = Rlibm.Generator
module S = Funcs.Specs

let exhaustive =
  match Sys.getenv_opt "RLIBM_EXHAUSTIVE" with Some ("1" | "true") -> true | _ -> false

let patterns16 () =
  if exhaustive then Rlibm.Enumerate.exhaustive16
  else Array.init (65536 / 7) (fun i -> i * 7)

(* ------------------------------------------------------------------ *)
(* Serve vs scalar bit-identity: 16-bit targets, all standard modes.   *)
(* ------------------------------------------------------------------ *)

let identity16 (base : S.target) name mode () =
  let t = if mode = Fp.Rounding_mode.Rne then base else S.with_mode base mode in
  let g = Funcs.Libm.get t name in
  let p =
    match Funcs.Kernels.of_generated g with
    | Some p -> p
    | None -> Alcotest.failf "%s %s: no kernel" t.tname name
  in
  let src = patterns16 () in
  let dst = Array.make (Array.length src) 0 in
  R.patterns p src dst;
  Array.iteri
    (fun i pat ->
      let want = G.eval_pattern g pat in
      if dst.(i) <> want then
        Alcotest.failf "%s %s @%s: pattern %04x: kernel %04x <> scalar %04x" t.tname name
          (Fp.Rounding_mode.to_string mode)
          pat dst.(i) want)
    src

let identity_tier () =
  let combos =
    if exhaustive then
      List.concat_map
        (fun t -> List.map (fun f -> (t, f)) [ "log2"; "exp" ])
        [ S.bfloat16; S.float16 ]
    else [ (S.bfloat16, "log2"); (S.float16, "exp") ]
  in
  List.concat_map
    (fun ((t : S.target), f) ->
      List.map
        (fun mode ->
          Alcotest.test_case
            (Printf.sprintf "%s %s @%s" t.tname f (Fp.Rounding_mode.to_string mode))
            `Slow (identity16 t f mode))
        Fp.Rounding_mode.standard)
    combos

(* ------------------------------------------------------------------ *)
(* float32 differential: strided sweep of the full input space.        *)
(* ------------------------------------------------------------------ *)

let test_float32_strided () =
  let g = Funcs.Libm.get ~quality:Funcs.Libm.Quick S.float32 "log2" in
  let p = Option.get (Funcs.Kernels.of_generated g) in
  let stride = 65537 in
  let n = (1 lsl 32) / stride in
  let src = Array.init n (fun i -> i * stride) in
  let dst = Array.make n 0 in
  R.patterns p src dst;
  Array.iteri
    (fun i pat ->
      let want = G.eval_pattern g pat in
      if dst.(i) <> want then
        Alcotest.failf "float32 log2: pattern %08x: kernel %08x <> scalar %08x" pat dst.(i) want)
    src

(* Run.verify agrees with the definition above and covers every mix. *)
let test_verify_mixes () =
  let g = Funcs.Libm.get S.bfloat16 "log2" in
  let p = Option.get (Funcs.Kernels.of_generated g) in
  List.iter
    (fun mix ->
      let src = W.gen p ~mix ~seed:7 ~n:4096 in
      match R.verify p src with
      | None -> ()
      | Some pat -> Alcotest.failf "%s mix: mismatch at %04x" (W.mix_to_string mix) pat)
    [ W.Uniform; W.Hardcase; W.Subnormal ]

(* ------------------------------------------------------------------ *)
(* Determinism: jobs 1/2/4 produce identical output buffers.           *)
(* ------------------------------------------------------------------ *)

let test_jobs_identical () =
  let g = Funcs.Libm.get S.bfloat16 "log2" in
  let p = Option.get (Funcs.Kernels.of_generated g) in
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:20 ~name:"serve jobs 1/2/4 identical"
       (QCheck.pair (QCheck.int_bound 100_000) (QCheck.int_range 512 4096))
       (fun (seed, n) ->
         let src = W.gen p ~mix:W.Hardcase ~seed ~n in
         let run j =
           let dst = Array.make n 0 in
           R.patterns ~jobs:j ~par_min:256 p src dst;
           dst
         in
         let want = run 1 in
         run 2 = want && run 4 = want))

(* ------------------------------------------------------------------ *)
(* Zero allocation per element on the steady-state path.               *)
(* ------------------------------------------------------------------ *)

let test_zero_alloc () =
  let g = Funcs.Libm.get S.bfloat16 "log2" in
  let p = Option.get (Funcs.Kernels.of_generated g) in
  let n = 65536 in
  let src = W.gen p ~mix:W.Uniform ~seed:42 ~n in
  let dst = Array.make n 0 in
  (* Warm up: pin the plan clone on this domain, fault everything in. *)
  R.patterns ~jobs:1 ~par_min:max_int p src dst;
  R.patterns ~jobs:1 ~par_min:max_int p src dst;
  let w0 = Gc.minor_words () in
  R.patterns ~jobs:1 ~par_min:max_int p src dst;
  let dw = Gc.minor_words () -. w0 in
  (* The shard setup (one closure, one 4-slot scratch) is the only
     allowed allocation: with 65536 elements, even one boxed float per
     element would show up as >= 3 * 65536 words. *)
  if dw > 1024.0 then
    Alcotest.failf "serving path allocates: %.0f minor words for %d uniform calls" dw n

(* The double pipeline too (the acceptance criterion's benchmark shape:
   uniform float32 mix through eval_doubles).  bfloat16 exercises the
   integer-rounding input leg, which is the allocation-riskier one. *)
let test_zero_alloc_doubles () =
  let g = Funcs.Libm.get S.bfloat16 "log2" in
  let p = Option.get (Funcs.Kernels.of_generated g) in
  let n = 65536 in
  let pats = W.gen p ~mix:W.Uniform ~seed:43 ~n in
  let src = Array.map (fun pat -> K.to_double p pat) pats in
  let dst = Array.make n 0.0 in
  R.doubles ~jobs:1 ~par_min:max_int p src dst;
  R.doubles ~jobs:1 ~par_min:max_int p src dst;
  let w0 = Gc.minor_words () in
  R.doubles ~jobs:1 ~par_min:max_int p src dst;
  let dw = Gc.minor_words () -. w0 in
  if dw > 1024.0 then
    Alcotest.failf "doubles pipeline allocates: %.0f minor words for %d uniform calls" dw n

(* ------------------------------------------------------------------ *)
(* Bigarray pipelines agree with the array pipelines.                  *)
(* ------------------------------------------------------------------ *)

let test_ba_pipelines () =
  let g = Funcs.Libm.get S.bfloat16 "log2" in
  let p = Option.get (Funcs.Kernels.of_generated g) in
  let n = 4096 in
  let src = W.gen p ~mix:W.Hardcase ~seed:11 ~n in
  let dst = Array.make n 0 in
  R.patterns p src dst;
  (* int32 pattern buffers *)
  let inb = R.create_i32 n and outb = R.create_i32 n in
  Array.iteri (fun i pat -> Bigarray.Array1.set inb i (Int32.of_int pat)) src;
  R.ba32 p inb outb;
  for i = 0 to n - 1 do
    let got = Int32.to_int (Bigarray.Array1.get outb i) land 0xFFFF_FFFF in
    if got <> dst.(i) then Alcotest.failf "ba32 mismatch at %d: %04x <> %04x" i got dst.(i)
  done;
  (* float64 value buffers vs the float-array pipeline *)
  let srcd = Array.map (fun pat -> K.to_double p pat) src in
  let dstd = Array.make n 0.0 in
  R.doubles p srcd dstd;
  let inf = R.create_f64 n and outf = R.create_f64 n in
  Array.iteri (fun i x -> Bigarray.Array1.set inf i x) srcd;
  R.ba64 p inf outf;
  for i = 0 to n - 1 do
    let got = Bigarray.Array1.get outf i in
    if Int64.bits_of_float got <> Int64.bits_of_float dstd.(i) then
      Alcotest.failf "ba64 mismatch at %d" i
  done

(* ------------------------------------------------------------------ *)
(* Batch delegation: the old API rides the kernels and stays           *)
(* bit-identical to the boxed closure path, edge patterns included.    *)
(* ------------------------------------------------------------------ *)

let test_batch_delegates () =
  let g = Funcs.Libm.get S.bfloat16 "exp" in
  let p = Option.get (Funcs.Kernels.of_generated g) in
  let n = 8192 in
  let src = W.gen p ~mix:W.Hardcase ~seed:3 ~n in
  let dst = Array.make n 0 and dst_boxed = Array.make n 0 in
  Funcs.Batch.eval_patterns g src dst;
  Funcs.Batch.eval_patterns_boxed g src dst_boxed;
  Alcotest.(check bool) "patterns: kernel = boxed" true (dst = dst_boxed);
  let srcd = Array.map (fun pat -> K.to_double p pat) src in
  let dd = Array.make n 0.0 and dd_boxed = Array.make n 0.0 in
  Funcs.Batch.eval_doubles g srcd dd;
  Funcs.Batch.eval_doubles_boxed g srcd dd_boxed;
  for i = 0 to n - 1 do
    if Int64.bits_of_float dd.(i) <> Int64.bits_of_float dd_boxed.(i) then
      Alcotest.failf "doubles: kernel <> boxed at %d (pattern %04x)" i src.(i)
  done

(* Posit targets have no kernel; the old path must still work. *)
let test_posit_fallback () =
  let g = Funcs.Libm.get ~quality:Funcs.Libm.Draft S.posit16 "exp" in
  Alcotest.(check bool) "posit16 has no kernel" true (Funcs.Kernels.of_generated g = None);
  let src = Array.init 1024 (fun i -> i * 64) in
  let dst = Array.make 1024 0 in
  Funcs.Batch.eval_patterns g src dst;
  Array.iteri
    (fun i pat ->
      if dst.(i) <> G.eval_pattern g pat then Alcotest.failf "posit mismatch at %04x" pat)
    src

(* ------------------------------------------------------------------ *)
(* Workload generator properties.                                      *)
(* ------------------------------------------------------------------ *)

let test_workload () =
  let g = Funcs.Libm.get S.bfloat16 "log2" in
  let p = Option.get (Funcs.Kernels.of_generated g) in
  (* Determinism: same (mix, seed, n) -> same patterns. *)
  List.iter
    (fun mix ->
      Alcotest.(check bool)
        (W.mix_to_string mix ^ " deterministic")
        true
        (W.gen p ~mix ~seed:5 ~n:512 = W.gen p ~mix ~seed:5 ~n:512))
    [ W.Uniform; W.Hardcase; W.Subnormal ];
  (* Uniform stays on the fast path. *)
  let u = W.gen p ~mix:W.Uniform ~seed:5 ~n:4096 in
  Alcotest.(check bool) "uniform all fast" true (Array.for_all (K.is_fast p) u);
  (* Hardcase hits the fallback often. *)
  let h = W.gen p ~mix:W.Hardcase ~seed:5 ~n:4096 in
  let slow = Array.fold_left (fun acc pat -> if K.is_fast p pat then acc else acc + 1) 0 h in
  Alcotest.(check bool) "hardcase >= 25% fallback" true (slow * 4 >= 4096);
  (* Subnormal mix concentrates on the zero-exponent field. *)
  let s = W.gen p ~mix:W.Subnormal ~seed:5 ~n:4096 in
  let subs =
    Array.fold_left
      (fun acc pat -> if (pat lsr 7) land 0xFF = 0 then acc + 1 else acc)
      0 s
  in
  Alcotest.(check bool) "subnormal >= 60% zero-exponent" true (subs * 10 >= 4096 * 6);
  (* Patterns stay inside the format width. *)
  Array.iter (fun pat -> assert (pat >= 0 && pat < 1 lsl 16)) s;
  (* mix round-trip *)
  List.iter
    (fun mix -> Alcotest.(check bool) "mix roundtrip" true (W.mix_of_string (W.mix_to_string mix) = Some mix))
    [ W.Uniform; W.Hardcase; W.Subnormal ]

(* SLO measurement sanity: positive, ordered percentiles. *)
let test_measure () =
  let g = Funcs.Libm.get S.bfloat16 "log2" in
  let p = Option.get (Funcs.Kernels.of_generated g) in
  let src = W.gen p ~mix:W.Uniform ~seed:1 ~n:2048 in
  let slo = R.measure ~jobs:1 p src ~batches:8 in
  Alcotest.(check bool) "calls/sec > 0" true (slo.R.calls_per_sec > 0.0);
  Alcotest.(check bool) "p50 <= p99" true (slo.R.p50_ns <= slo.R.p99_ns);
  Alcotest.(check bool) "p50 > 0" true (slo.R.p50_ns > 0.0)

(* Config knob: RLIBM_BATCH_PAR_MIN feeds Batch's sharding threshold. *)
let test_par_min_config () =
  Alcotest.(check int) "default par_min" (1 lsl 14) Rlibm.Config.default.batch_par_min

(* ------------------------------------------------------------------ *)
(* Output rounding: round_bits = lib/fp's exact rounding, every mode.  *)
(* ------------------------------------------------------------------ *)

module I = Fp.Ieee
module M = Fp.Rounding_mode

(* A plan whose output fields describe [fmt]; round_bits reads nothing
   else.  The base plan is bfloat16 log2 at RNE, so every mode below
   other than RNE is one the plan was not built for — the doubles
   pipelines call round_bits at RNE on plans of any mode. *)
let out_plan (base : K.plan) (fmt : I.format) =
  {
    base with
    K.o_mb = fmt.I.mb;
    o_mmask = I.mant_mask fmt;
    o_sbit = I.sign_bit fmt;
    o_bias = I.bias fmt;
    o_emin = I.emin fmt;
    o_emax = I.emax fmt;
    o_nan = I.nan_pattern fmt;
    o_inf_pos = I.inf_pattern fmt 1;
    o_inf_neg = I.inf_pattern fmt (-1);
    o_maxf_pos = I.max_finite_pattern fmt 1;
    o_maxf_neg = I.max_finite_pattern fmt (-1);
  }

(* Doubles aimed at every branch and boundary of the rounding, for
   format [fmt]; each draw also picks the sign. *)
let gen_rounding_input (fmt : I.format) =
  let open QCheck.Gen in
  let of_bits de m = Int64.float_of_bits (Int64.logor (Int64.shift_left (Int64.of_int de) 52) m) in
  let mant = map (fun m -> Int64.logand m 0xF_FFFF_FFFF_FFFFL) ui64 in
  let at_exp e = map (fun m -> of_bits (e + 1023) m) mant in
  (* a non-negative finite target value, subnormals and max_finite included *)
  let finite_pat = int_bound (I.max_finite_pattern fmt 1) in
  let tie =
    (* halfway between a finite value and the next one up (exact: at
       most mb + 2 significant bits), then 0 or 1 double either side *)
    map3
      (fun p step dir ->
        let v = I.to_double fmt p and v' = I.to_double fmt (p + 1) in
        let h = if Float.is_finite v' then (v +. v') /. 2.0 else v +. ((v -. I.to_double fmt (p - 1)) /. 2.0) in
        match step with
        | 0 -> h
        | _ -> if dir then Fp.Fp64.next_up h else Fp.Fp64.next_down h)
      finite_pat (int_bound 1) bool
  in
  let edge_exp =
    (* e = emin - 1, emin, emax, emax + 1 *)
    oneofl [ I.emin fmt - 1; I.emin fmt; I.emax fmt; I.emax fmt + 1 ] >>= at_exp
  in
  let near_max =
    (* exponent emax with every kept mantissa bit set: just below
       max_finite + half an ulp, where a carry reaches infinity *)
    map
      (fun low ->
        let kept = Int64.shift_left (Int64.of_int (I.mant_mask fmt)) (52 - fmt.I.mb) in
        let below = Int64.pred (Int64.shift_left 1L (52 - fmt.I.mb)) in
        of_bits (I.emax fmt + 1023) (Int64.logor kept (Int64.logand low below)))
      ui64
  in
  let tiny =
    (* subnormal and zero results, double subnormals and zeros too *)
    oneof
      [
        int_range (I.emin fmt - fmt.I.mb - 3) (I.emin fmt - 1) >>= at_exp;
        map (fun m -> of_bits 0 m) mant;
        return 0.0;
      ]
  in
  let any = map Int64.float_of_bits ui64 in
  map2
    (fun x neg -> if neg then -.x else x)
    (frequency [ (3, tie); (2, edge_exp); (1, near_max); (2, tiny); (1, any) ])
    bool

let test_round_bits_exact () =
  let base = Option.get (Funcs.Kernels.of_generated (Funcs.Libm.get S.bfloat16 "log2")) in
  List.iter
    (fun (fmt : I.format) ->
      let p = out_plan base fmt in
      QCheck.Test.check_exn
        (QCheck.Test.make ~count:3000
           ~name:(fmt.I.name ^ ": round_bits = Ieee.of_double = round_rational, every mode")
           (QCheck.make ~print:(fun x -> Printf.sprintf "%h" x) (gen_rounding_input fmt))
           (fun x ->
             let b = Int64.bits_of_float x in
             let hi = Int64.to_int (Int64.shift_right_logical b 32)
             and lo = Int64.to_int (Int64.logand b 0xFFFF_FFFFL) in
             List.for_all
               (fun mode ->
                 let got = K.round_bits p mode hi lo in
                 got = I.of_double fmt ~mode x
                 && (x = 0.0 || (not (Float.is_finite x))
                    || got = I.round_rational fmt ~mode (Rational.of_float x)))
               M.all)))
    [ I.bfloat16; I.float16; I.float32; Funcs.Specs.Float34.fmt ]

(* ------------------------------------------------------------------ *)
(* Progressive tier (RLIBM-PROG): the prefix tier is a serving detail, *)
(* never a semantic one — tiered output must be bit-identical to the   *)
(* full kernel and the scalar path on every input, and a certificate   *)
(* miss escalates instead of deciding.                                 *)
(* ------------------------------------------------------------------ *)

let prog_cfg = { Rlibm.Config.default with progressive = true }

(* Tiered vs full kernel vs scalar, across targets x functions x all
   five standard modes (exhaustive16 under RLIBM_EXHAUSTIVE).  Combos
   whose generation certifies no prefix still run — the tiered pipeline
   then takes the counted full path, which must agree all the same. *)
let tier_identity16 (base : S.target) name mode () =
  let t = if mode = Fp.Rounding_mode.Rne then base else S.with_mode base mode in
  let g = Funcs.Libm.get ~cfg:prog_cfg t name in
  let p =
    match Funcs.Kernels.of_generated g with
    | Some p -> p
    | None -> Alcotest.failf "%s %s: no kernel" t.tname name
  in
  let src = patterns16 () in
  let n = Array.length src in
  let dst = Array.make n 0 in
  let ctr = K.counters () in
  R.patterns_tiered p src dst ctr;
  let dst_full = Array.make n 0 in
  R.patterns { p with K.tier = None } src dst_full;
  Array.iteri
    (fun i pat ->
      let want = G.eval_pattern g pat in
      if dst.(i) <> want then
        Alcotest.failf "%s %s @%s: pattern %04x: tiered %04x <> scalar %04x" t.tname name
          (Fp.Rounding_mode.to_string mode)
          pat dst.(i) want;
      if dst_full.(i) <> want then
        Alcotest.failf "%s %s @%s: pattern %04x: full kernel %04x <> scalar %04x" t.tname name
          (Fp.Rounding_mode.to_string mode)
          pat dst_full.(i) want)
    src;
  (* Every call lands in exactly one tier counter. *)
  Alcotest.(check int)
    (Printf.sprintf "%s %s @%s: tier counts conserve" t.tname name
       (Fp.Rounding_mode.to_string mode))
    n
    (ctr.(K.c_prefix) + ctr.(K.c_full) + ctr.(K.c_fallback))

let tier_identity_cases () =
  let combos =
    if exhaustive then
      List.concat_map
        (fun t -> List.map (fun f -> (t, f)) [ "log2"; "exp" ])
        [ S.bfloat16; S.float16 ]
    else [ (S.bfloat16, "log2"); (S.float16, "exp") ]
  in
  List.concat_map
    (fun ((t : S.target), f) ->
      List.map
        (fun mode ->
          Alcotest.test_case
            (Printf.sprintf "tiered %s %s @%s" t.tname f (Fp.Rounding_mode.to_string mode))
            `Slow (tier_identity16 t f mode))
        Fp.Rounding_mode.standard)
    combos

(* The acceptance workload: bfloat16 log2 must actually certify a tier,
   and a uniform mix must serve >= 90% of calls from the prefix. *)
let test_tier_fast_share () =
  let g = Funcs.Libm.get ~cfg:prog_cfg S.bfloat16 "log2" in
  let p = Option.get (Funcs.Kernels.of_generated g) in
  let tp =
    match p.K.tier with
    | Some tp -> tp
    | None -> Alcotest.fail "bfloat16 log2: no certified prefix tier"
  in
  Alcotest.(check bool) "prefix is strict" true (tp.(0).K.tk >= 1);
  let n = 8192 in
  let src = W.gen p ~mix:W.Uniform ~seed:9 ~n in
  let dst = Array.make n 0 in
  let ctr = K.counters () in
  R.patterns_tiered ~jobs:1 p src dst ctr;
  Alcotest.(check int) "counts conserve" n (ctr.(K.c_prefix) + ctr.(K.c_full) + ctr.(K.c_fallback));
  Alcotest.(check bool)
    (Printf.sprintf "uniform >= 90%% prefix tier (got %d/%d)" ctr.(K.c_prefix) n)
    true
    (ctr.(K.c_prefix) * 10 >= n * 9)

(* Miss-never-wrong, adversarially: poison a pseudo-random subset of the
   dense certificate rows with NaN (the kernel's miss marker) in a
   cloned plan.  Every poisoned bucket becomes a forced certificate
   miss — outputs must stay bit-identical to the scalar path, and the
   forced misses must surface as full-polynomial counts, not prefix
   counts.  This drives the escalation path even when the real
   certificates cover 100% of the workload. *)
let test_miss_never_wrong () =
  let g = Funcs.Libm.get ~cfg:prog_cfg S.bfloat16 "log2" in
  let p = Option.get (Funcs.Kernels.of_generated g) in
  if p.K.tier = None then Alcotest.fail "bfloat16 log2: no certified prefix tier";
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:25 ~name:"certificate miss escalates, never decides"
       (QCheck.pair (QCheck.int_range 1 7) (QCheck.int_bound 100_000))
       (fun (keep_mod, seed) ->
         let q = K.clone p in
         (match q.K.tier with
         | None -> ()
         | Some tps ->
             Array.iter
               (fun (tp : K.tpiece) ->
                 List.iter
                   (fun (tc : K.tcert) ->
                     let rows = Array.length tc.K.t_coeffs / max 1 tp.K.tk in
                     for row = 0 to rows - 1 do
                       (* Deterministic pseudo-random poisoning. *)
                       if (row + seed) mod keep_mod <> 0 then
                         for j = 0 to tp.K.tk - 1 do
                           tc.K.t_coeffs.((row * tp.K.tk) + j) <- Float.nan
                         done
                     done)
                   [ tp.K.tneg; tp.K.tpos ])
               tps);
         let n = 2048 in
         let src = W.gen p ~mix:W.Uniform ~seed ~n in
         let dst = Array.make n 0 in
         let ctr = K.counters () in
         R.patterns_tiered ~jobs:1 ~par_min:max_int q src dst ctr;
         Array.for_all2 (fun got pat -> got = G.eval_pattern g pat) dst src
         && ctr.(K.c_prefix) + ctr.(K.c_full) + ctr.(K.c_fallback) = n))

(* The tiered pipeline keeps the serving path's zero-allocation
   contract: certificate probes are integer/float ops over preallocated
   dense tables, and the counters are a plain int array. *)
let test_tier_zero_alloc () =
  let g = Funcs.Libm.get ~cfg:prog_cfg S.bfloat16 "log2" in
  let p = Option.get (Funcs.Kernels.of_generated g) in
  if p.K.tier = None then Alcotest.fail "bfloat16 log2: no certified prefix tier";
  let n = 65536 in
  let src = W.gen p ~mix:W.Uniform ~seed:42 ~n in
  let dst = Array.make n 0 in
  let ctr = K.counters () in
  R.patterns_tiered ~jobs:1 ~par_min:max_int p src dst ctr;
  R.patterns_tiered ~jobs:1 ~par_min:max_int p src dst ctr;
  let w0 = Gc.minor_words () in
  R.patterns_tiered ~jobs:1 ~par_min:max_int p src dst ctr;
  let dw = Gc.minor_words () -. w0 in
  if dw > 1024.0 then
    Alcotest.failf "tiered serving path allocates: %.0f minor words for %d uniform calls" dw n

(* Tier metadata invariants on every kernel-capable combo that certified
   one: strict prefix (tk < nt is enforced at lowering), dense tables
   sized rows * tk, and the non-progressive generation of the same
   function carries no tier at all (the classic path is untouched). *)
let test_tier_shape () =
  let g = Funcs.Libm.get ~cfg:prog_cfg S.bfloat16 "log2" in
  let p = Option.get (Funcs.Kernels.of_generated g) in
  (match p.K.tier with
  | None -> Alcotest.fail "bfloat16 log2: no certified prefix tier"
  | Some tps ->
      Array.iteri
        (fun i (tp : K.tpiece) ->
          Alcotest.(check bool) (Printf.sprintf "piece %d: tk >= 1" i) true (tp.K.tk >= 1);
          List.iter
            (fun (tc : K.tcert) ->
              Alcotest.(check int)
                (Printf.sprintf "piece %d: dense rows divide evenly" i)
                0
                (Array.length tc.K.t_coeffs mod tp.K.tk))
            [ tp.K.tneg; tp.K.tpos ])
        tps);
  let g0 = Funcs.Libm.get S.bfloat16 "log2" in
  let p0 = Option.get (Funcs.Kernels.of_generated g0) in
  Alcotest.(check bool) "classic generation has no tier" true (p0.K.tier = None)

(* The tables the suites above serve, pinned (see Test_util.pinned_suite). *)
let pinned_fingerprints =
  let fp ?quality ?cfg t name () = G.tables_fingerprint (Funcs.Libm.get ?quality ?cfg t name) in
  let modes (base : S.target) name ~cfg pins =
    List.map2
      (fun mode want ->
        let t = if mode = Fp.Rounding_mode.Rne then base else S.with_mode base mode in
        ( Printf.sprintf "%s%s %s @%s" (if cfg = None then "" else "prog ") base.tname name
            (Fp.Rounding_mode.to_string mode),
          want,
          fp ?cfg t name ))
      Fp.Rounding_mode.standard pins
  in
  let same v = List.init 5 (fun _ -> v) in
  modes S.bfloat16 "log2" ~cfg:None (same "fnv1a:1df4a58e8a47f4d2")
  @ modes S.bfloat16 "log2" ~cfg:(Some prog_cfg) (same "fnv1a:10cefd2c1d7480a0")
  @ modes S.float16 "exp" ~cfg:None
      [ "fnv1a:37d1b51709575bf5"; "fnv1a:37d1b51709575bf5"; "fnv1a:2a3034ec890a7849";
        "fnv1a:1d6848e11a6f4a19"; "fnv1a:1d6848e11a6f4a19" ]
  @ modes S.float16 "exp" ~cfg:(Some prog_cfg)
      [ "fnv1a:229b239ecec3e76f"; "fnv1a:19c5b4a8279640d6"; "fnv1a:0868fd6104809a63";
        "fnv1a:0d1c327a0e9553b4"; "fnv1a:0d1c327a0e9553b4" ]
  @ [
      ("posit16 exp draft", "fnv1a:23eb72783cdc2370", fp ~quality:Funcs.Libm.Draft S.posit16 "exp");
      ("float32 log2 quick", "fnv1a:0ae8cf217deccece", fp ~quality:Funcs.Libm.Quick S.float32 "log2");
      ("bfloat16 exp", "fnv1a:3a0196e2900527da", fp S.bfloat16 "exp");
    ]

let () =
  Alcotest.run "serve"
    [
      ("identity16", identity_tier ());
      ( "float32",
        [ Alcotest.test_case "log2 strided differential" `Slow test_float32_strided ] );
      ( "pipelines",
        [
          Alcotest.test_case "verify over mixes" `Quick test_verify_mixes;
          Alcotest.test_case "bigarray = array" `Quick test_ba_pipelines;
          Alcotest.test_case "batch delegates" `Quick test_batch_delegates;
          Alcotest.test_case "posit fallback" `Quick test_posit_fallback;
        ] );
      ( "contracts",
        [
          Alcotest.test_case "jobs 1/2/4 identical" `Slow test_jobs_identical;
          Alcotest.test_case "zero alloc (patterns)" `Quick test_zero_alloc;
          Alcotest.test_case "zero alloc (doubles)" `Quick test_zero_alloc_doubles;
          Alcotest.test_case "workload mixes" `Quick test_workload;
          Alcotest.test_case "slo measure" `Quick test_measure;
          Alcotest.test_case "par_min config" `Quick test_par_min_config;
        ] );
      ( "round_bits",
        [ Alcotest.test_case "exact rounding (qcheck)" `Quick test_round_bits_exact ] );
      ("tier_identity16", tier_identity_cases ());
      ( "tier",
        [
          Alcotest.test_case "uniform fast-tier share" `Quick test_tier_fast_share;
          Alcotest.test_case "miss never wrong (qcheck)" `Slow test_miss_never_wrong;
          Alcotest.test_case "zero alloc (tiered)" `Quick test_tier_zero_alloc;
          Alcotest.test_case "tier shape invariants" `Quick test_tier_shape;
        ] );
      Test_util.pinned_suite "pinned" pinned_fingerprints;
    ]
