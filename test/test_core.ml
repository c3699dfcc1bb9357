(* Core pipeline: rounding intervals, domain splitting, polynomial
   evaluation, counterexample-guided generation, reduced intervals. *)

module Q = Rational
module R = Fp.Representation
open Test_util

let st = rand 7

(* ------------------------------------------------------------------ *)
(* Rounding intervals (Algorithm 1).                                   *)
(* ------------------------------------------------------------------ *)

(* The defining property, checked at the endpoints and just outside;
   interval membership is up to the sign of zero (value equality). *)
let interval_property (module T : R.S) y =
  let same p = pattern_value_equal (module T) p y in
  let iv = Rlibm.Rounding.interval (module T) y in
  if not (same (T.of_double iv.lo)) then Alcotest.failf "lo not in interval for %x" y;
  if not (same (T.of_double iv.hi)) then Alcotest.failf "hi not in interval for %x" y;
  let below = Fp.Fp64.next_down iv.lo and above = Fp.Fp64.next_up iv.hi in
  if Float.is_finite below && same (T.of_double below) then Alcotest.failf "lo not minimal for %x" y;
  if Float.is_finite above && same (T.of_double above) then Alcotest.failf "hi not maximal for %x" y

let test_rounding_intervals_bf16 () =
  for p = 0 to 65535 do
    if p mod 17 = 0 && Fp.Bfloat16.classify p = R.Finite then
      interval_property (module Fp.Bfloat16) p
  done

let test_rounding_intervals_f32 () =
  for _ = 1 to 400 do
    let p = Random.State.full_int st (1 lsl 30) lor (Random.State.int st 4 lsl 30) in
    if Fp.Fp32.classify p = R.Finite then interval_property (module Fp.Fp32) p
  done

let test_rounding_intervals_posit () =
  for _ = 1 to 400 do
    let p = Random.State.full_int st (1 lsl 30) lor (Random.State.int st 4 lsl 30) in
    if Posit.Posit32.classify p = R.Finite then interval_property (module Posit.Posit32) p
  done;
  (* maxpos has a one-sided-unbounded interval ending at the largest double *)
  let iv = Rlibm.Rounding.interval (module Posit.Posit32) 0x7FFFFFFF in
  Alcotest.(check (float 0.0)) "maxpos interval top" Float.max_float iv.hi

let test_search_max () =
  Alcotest.(check int) "all true" 100 (Rlibm.Rounding.search_max (fun _ -> true) 100);
  Alcotest.(check int) "threshold" 37 (Rlibm.Rounding.search_max (fun k -> k <= 37) 1000000);
  Alcotest.(check int) "only zero" 0 (Rlibm.Rounding.search_max (fun k -> k = 0) 1000000)

(* ------------------------------------------------------------------ *)
(* Splitting.                                                          *)
(* ------------------------------------------------------------------ *)

let test_splitting_basics () =
  let hull = (Float.ldexp 1.0 (-20), Float.ldexp 1.0 (-10)) in
  let s = Rlibm.Splitting.make ~hull ~nbits:4 in
  Alcotest.(check int) "16 subdomains" 16 (Rlibm.Splitting.n_subdomains s);
  (* Index is monotone over the hull. *)
  let prev = ref (-1) in
  for i = 0 to 1000 do
    let r = Float.ldexp (1.0 +. (float_of_int i /. 1001.0)) (-15) in
    let idx = Rlibm.Splitting.index s r in
    if idx < !prev then Alcotest.fail "index not monotone";
    prev := max !prev idx;
    if idx < 0 || idx > 15 then Alcotest.fail "index out of range"
  done;
  (* Outside the hull clamps. *)
  Alcotest.(check int) "clamp low" (Rlibm.Splitting.index s (Float.ldexp 1.0 (-20)))
    (Rlibm.Splitting.index s 0.0);
  Alcotest.(check int) "clamp high" (Rlibm.Splitting.index s (Float.ldexp 1.0 (-10)))
    (Rlibm.Splitting.index s 1.0)

let test_splitting_negative_hull () =
  let hull = (-0.0078125, -.Float.ldexp 1.0 (-40)) in
  let s = Rlibm.Splitting.make ~hull ~nbits:3 in
  (* Monotone in magnitude for negatives. *)
  let i_small = Rlibm.Splitting.index s (-.Float.ldexp 1.0 (-39)) in
  let i_big = Rlibm.Splitting.index s (-0.0078) in
  Alcotest.(check bool) "magnitude order" true (i_small <= i_big)

let test_splitting_single_point () =
  let r = 0.25 in
  let s = Rlibm.Splitting.make ~hull:(r, r) ~nbits:5 in
  Alcotest.(check int) "degenerate hull -> 1 subdomain" 1 (Rlibm.Splitting.n_subdomains s);
  Alcotest.(check int) "index" 0 (Rlibm.Splitting.index s r)

(* Generation-time bucketing always matches run-time indexing. *)
let prop_split_consistency =
  QCheck.Test.make ~name:"index stable across calls" ~count:2000 QCheck.unit (fun () ->
      let s = Rlibm.Splitting.make ~hull:(Float.ldexp 1.0 (-60), 0.0078125) ~nbits:5 in
      let r = Float.ldexp (Random.State.float st 1.0 +. 1.0) (-(8 + Random.State.int st 50)) in
      let i = Rlibm.Splitting.index s r in
      i >= 0 && i < 32 && i = Rlibm.Splitting.index s r)

(* ------------------------------------------------------------------ *)
(* Polyeval.                                                           *)
(* ------------------------------------------------------------------ *)

let naive terms coeffs r =
  let acc = ref 0.0 in
  Array.iteri (fun i e -> acc := !acc +. (coeffs.(i) *. Float.pow r (float_of_int e))) terms;
  !acc

let prop_polyeval_close_to_naive =
  QCheck.Test.make ~name:"Horner close to naive power eval" ~count:3000 QCheck.unit (fun () ->
      let structures = [ [| 0; 1; 2; 3 |]; [| 1; 3; 5 |]; [| 0; 2; 4 |]; [| 1; 2; 3 |] ] in
      let terms = List.nth structures (Random.State.int st 4) in
      let coeffs = Array.map (fun _ -> Random.State.float st 4.0 -. 2.0) terms in
      let r = Random.State.float st 0.01 in
      let a = Rlibm.Polyeval.eval ~terms coeffs r and b = naive terms coeffs r in
      a = b || Float.abs (a -. b) <= 1e-12 *. Float.max 1.0 (Float.abs a))

let test_polyeval_exact_structure () =
  (* Odd structure at 0 is exactly +0. *)
  Alcotest.(check (float 0.0)) "odd at 0" 0.0 (Rlibm.Polyeval.eval ~terms:[| 1; 3; 5 |] [| 3.1; -2.0; 1.0 |] 0.0);
  (* Constant-led structure at 0 gives c0. *)
  Alcotest.(check (float 0.0)) "even at 0" 7.5 (Rlibm.Polyeval.eval ~terms:[| 0; 2; 4 |] [| 7.5; 1.0; 1.0 |] 0.0)

(* ------------------------------------------------------------------ *)
(* Polygen (Algorithm 4).                                              *)
(* ------------------------------------------------------------------ *)

let mk_cons f tol pts =
  Array.of_list
    (List.map (fun r -> { Rlibm.Reduced.r; lo = f r -. tol; hi = f r +. tol; lo_open = false; hi_open = false; mid = f r }) pts)

let test_polygen_simple () =
  let f r = 1.0 +. r +. (r *. r /. 2.0) in
  let cons = mk_cons f 1e-8 (List.init 500 (fun i -> float_of_int i /. 64000.0)) in
  match Rlibm.Polygen.gen ~cfg:Rlibm.Config.default ~terms:[| 0; 1; 2; 3 |] cons with
  | Rlibm.Polygen.Found c ->
      Array.iter
        (fun (x : Rlibm.Reduced.constr) ->
          let v = Rlibm.Polyeval.eval ~terms:[| 0; 1; 2; 3 |] c x.r in
          if not (v >= x.lo && v <= x.hi) then Alcotest.fail "constraint violated")
        cons
  | Rlibm.Polygen.No_polynomial -> Alcotest.fail "generation failed"

let test_polygen_infeasible () =
  (* |sin|-like data cannot be fitted by any polynomial of the structure
     when two constraints at the same r contradict. *)
  let cons =
    [|
      { Rlibm.Reduced.r = 0.001; lo = 0.5; hi = 0.6; lo_open = false; hi_open = false; mid = 0.55 };
      { Rlibm.Reduced.r = 0.001; lo = 0.7; hi = 0.8; lo_open = false; hi_open = false; mid = 0.75 };
    |]
  in
  Alcotest.(check bool)
    "contradiction"
    true
    (Rlibm.Polygen.gen ~cfg:Rlibm.Config.default ~terms:[| 0; 1 |] cons = Rlibm.Polygen.No_polynomial)

let test_polygen_counterexample_loop () =
  (* A tight "bump" away from the initial uniform sample forces the
     counterexample path: intervals are wide except one narrow pinch. *)
  let f r = r *. (1.0 +. (r *. r)) in
  let pts = List.init 2000 (fun i -> float_of_int (i + 1) /. 300000.0) in
  let cons =
    Array.of_list
      (List.mapi
         (fun i r ->
           let tol = if i = 1234 then 1e-13 else 1e-5 in
           { Rlibm.Reduced.r; lo = f r -. tol; hi = f r +. tol; lo_open = false; hi_open = false; mid = f r })
         pts)
  in
  match Rlibm.Polygen.gen ~cfg:Rlibm.Config.default ~terms:[| 1; 3 |] cons with
  | Rlibm.Polygen.Found c ->
      let x = cons.(1234) in
      let v = Rlibm.Polyeval.eval ~terms:[| 1; 3 |] c x.r in
      Alcotest.(check bool) "pinch satisfied" true (v >= x.lo && v <= x.hi)
  | Rlibm.Polygen.No_polynomial -> Alcotest.fail "should find a polynomial"

let test_tube_shrink () =
  (* Every rung keeps [mid] inside and never leaves the original box. *)
  let c = { Rlibm.Reduced.r = 0.01; lo = 1.0; hi = 1.0 +. 1e-6; lo_open = false; hi_open = false; mid = 1.0 +. 3e-7 } in
  List.iter
    (fun f ->
      let s = Rlibm.Polygen.shrink_by f c in
      Alcotest.(check bool) "mid inside" true (s.lo <= c.mid && c.mid <= s.hi);
      Alcotest.(check bool) "subset" true (s.lo >= c.lo && s.hi <= c.hi);
      (* Tube width ~ max(width/f, tube_ulps), up to 2x for centering. *)
      let budget = Float.max ((c.hi -. c.lo) /. f) (Float.ldexp 3e-7 (-45)) in
      Alcotest.(check bool) "tube bounded" true (s.hi -. s.lo <= (2.2 *. budget)))
    [ 65536.0; 1024.0; 16.0 ];
  (* A box narrower than the tube is returned intersected, nonempty. *)
  let narrow = { Rlibm.Reduced.r = 0.01; lo = 2.0; hi = Fp.Fp64.advance 2.0 1; lo_open = false; hi_open = false; mid = 2.0 } in
  let s2 = Rlibm.Polygen.shrink narrow in
  Alcotest.(check bool) "narrow box survives" true (s2.lo <= s2.hi)

(* ------------------------------------------------------------------ *)
(* Enumerate.                                                          *)
(* ------------------------------------------------------------------ *)

let test_enumerate () =
  Alcotest.(check int) "exhaustive16 size" 65536 (Array.length Rlibm.Enumerate.exhaustive16);
  let a = Rlibm.Enumerate.stratified32 ~per_stratum:4 () in
  let b = Rlibm.Enumerate.stratified32 ~per_stratum:4 () in
  Alcotest.(check int) "stratified size" (512 * 4) (Array.length a);
  Alcotest.(check bool) "deterministic" true (a = b);
  (* Every stratum is represented. *)
  let seen = Hashtbl.create 512 in
  Array.iter (fun p -> Hashtbl.replace seen (p lsr 23) ()) a;
  Alcotest.(check int) "all strata" 512 (Hashtbl.length seen);
  let r = Rlibm.Enumerate.range ~lo:10 ~hi:20 ~stride:5 in
  Alcotest.(check (array int)) "range" [| 10; 15; 20 |] r

(* ------------------------------------------------------------------ *)
(* Reduced intervals (Algorithm 2) via a tiny synthetic spec.          *)
(* ------------------------------------------------------------------ *)

(* f(x) = exp(x) over bfloat16 with the real reduction; check that the
   deduced box maps into the rounding interval under OC at its corners. *)
let test_reduced_box_property () =
  let spec = Funcs.Specs.exp Funcs.Specs.bfloat16 in
  let module T = Fp.Bfloat16 in
  let count = ref 0 in
  for p = 0 to 65535 do
    if !count < 300 && p mod 97 = 0 && spec.special p = None then begin
      incr count;
      let y =
        Oracle.Elementary.correctly_rounded ~round:T.round_rational spec.oracle (T.to_rational p)
      in
      let interval = Rlibm.Rounding.interval spec.repr y in
      match Rlibm.Reduced.deduce spec ~pattern:p ~interval with
      | Error _ -> Alcotest.failf "deduce failed at %04x" p
      | Ok (rr, cons) ->
          let lo = Array.map (fun (c : Rlibm.Reduced.constr) -> c.lo) cons in
          let hi = Array.map (fun (c : Rlibm.Reduced.constr) -> c.hi) cons in
          let inside v = Rlibm.Rounding.contains interval (spec.compensate rr v) in
          if not (inside lo) then Alcotest.failf "low corner escapes at %04x" p;
          if not (inside hi) then Alcotest.failf "high corner escapes at %04x" p
    end
  done

(* Environment overrides through a fake lookup: valid values apply,
   unset or blank ones keep the defaults, garbage and negatives are
   refused with the variable and value in the message. *)
let test_config_env () =
  let cfg env = Rlibm.Config.of_env (fun k -> List.assoc_opt k env) in
  let d = cfg [] in
  Alcotest.(check int) "unset par_min" (1 lsl 14) d.batch_par_min;
  Alcotest.(check bool) "unset flags off" false (d.lp_warm || d.progressive);
  Alcotest.(check (option string)) "unset cache dir" None d.oracle_cache_dir;
  let v = cfg [ ("RLIBM_BATCH_PAR_MIN", " 256 "); ("RLIBM_LP_WARM", "1"); ("RLIBM_PROG", "true");
                ("RLIBM_ORACLE_CACHE", "/tmp/oc") ] in
  Alcotest.(check int) "valid par_min" 256 v.batch_par_min;
  Alcotest.(check int) "zero par_min" 0 (cfg [ ("RLIBM_BATCH_PAR_MIN", "0") ]).batch_par_min;
  Alcotest.(check bool) "valid flags on" true (v.lp_warm && v.progressive);
  Alcotest.(check bool) "explicit off" false (cfg [ ("RLIBM_PROG", "0") ]).progressive;
  Alcotest.(check (option string)) "cache dir" (Some "/tmp/oc") v.oracle_cache_dir;
  let e = cfg [ ("RLIBM_BATCH_PAR_MIN", ""); ("RLIBM_LP_WARM", " "); ("RLIBM_ORACLE_CACHE", "") ] in
  Alcotest.(check int) "empty par_min" (1 lsl 14) e.batch_par_min;
  Alcotest.(check bool) "empty flag off" false e.lp_warm;
  Alcotest.(check (option string)) "empty cache dir" None e.oracle_cache_dir;
  let refused var value =
    match cfg [ (var, value) ] with
    | _ -> Alcotest.failf "%s=%S accepted" var value
    | exception Invalid_argument msg ->
        let names s =
          let n = String.length s in
          let rec go i = i + n <= String.length msg && (String.sub msg i n = s || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) (Printf.sprintf "%S names %s and %S" msg var value) true
          (names var && names value)
  in
  refused "RLIBM_BATCH_PAR_MIN" "lots";
  refused "RLIBM_BATCH_PAR_MIN" "-5";
  refused "RLIBM_LP_WARM" "yes please";
  refused "RLIBM_PROG" "2"

let () =
  Alcotest.run "core"
    [
      ( "rounding",
        [
          Alcotest.test_case "bfloat16 intervals" `Quick test_rounding_intervals_bf16;
          Alcotest.test_case "float32 intervals" `Quick test_rounding_intervals_f32;
          Alcotest.test_case "posit32 intervals" `Quick test_rounding_intervals_posit;
          Alcotest.test_case "search_max" `Quick test_search_max;
        ] );
      ( "splitting",
        [
          Alcotest.test_case "basics" `Quick test_splitting_basics;
          Alcotest.test_case "negative hull" `Quick test_splitting_negative_hull;
          Alcotest.test_case "single point" `Quick test_splitting_single_point;
        ] );
      qsuite "splitting-properties" [ prop_split_consistency ];
      ( "polyeval",
        [ Alcotest.test_case "exact structure" `Quick test_polyeval_exact_structure ] );
      qsuite "polyeval-properties" [ prop_polyeval_close_to_naive ];
      ( "polygen",
        [
          Alcotest.test_case "simple" `Quick test_polygen_simple;
          Alcotest.test_case "infeasible" `Quick test_polygen_infeasible;
          Alcotest.test_case "counterexample loop" `Quick test_polygen_counterexample_loop;
          Alcotest.test_case "tube shrink" `Quick test_tube_shrink;
        ] );
      ("enumerate", [ Alcotest.test_case "enumerations" `Quick test_enumerate ]);
      ("reduced", [ Alcotest.test_case "box property" `Quick test_reduced_box_property ]);
      ("config", [ Alcotest.test_case "environment overrides" `Quick test_config_env ]);
    ]
