(* Mode-polymorphic rounding: the properties that make one round-to-odd
   table serve every representation and rounding mode.

   - of_double agrees with exact rational rounding in every mode;
   - the rounding interval of round(x) contains x (membership);
   - adjacent rounding intervals tile the real line: under the nearest
     modes they are closed double boxes one double apart, under the
     directed modes and round-to-odd they share their boundary value
     with complementary openness;
   - search_max is safe at its max_int bound (the clamped doubling);
   - batch evaluation through one shared compiled closure is
     bit-identical at every job count (domain-local scratch). *)

module Q = Rational
module R = Fp.Representation
module M = Fp.Rounding_mode
open Test_util

let st = rand 11

(* ------------------------------------------------------------------ *)
(* Interval properties per representation x mode.                      *)
(* ------------------------------------------------------------------ *)

let prop_differential (module T : R.S) tname ~max_exp =
  QCheck.Test.make
    ~name:(tname ^ ": of_double = exact rational rounding, every mode")
    ~count:3000 QCheck.unit
    (fun () ->
      let x = random_double ~max_exp st in
      List.for_all
        (fun mode ->
          pattern_value_equal (module T)
            (T.of_double ~mode x)
            (T.round_rational ~mode (Q.of_float x)))
        M.all)

let prop_membership (module T : R.S) tname ~max_exp =
  QCheck.Test.make
    ~name:(tname ^ ": interval of round(x) contains x, every mode")
    ~count:2000 QCheck.unit
    (fun () ->
      let x = random_double ~max_exp st in
      List.for_all
        (fun mode ->
          let p = T.of_double ~mode x in
          match T.classify p with
          | R.Finite -> Rlibm.Rounding.contains (Rlibm.Rounding.interval (module T) ~mode p) x
          | R.Inf _ | R.Nan -> true)
        M.all)

(* The interval of [p] and the interval of the next value up must tile:
   no real between them is unclaimed and none is claimed twice. *)
let prop_tiling (module T : R.S) tname ~max_exp =
  QCheck.Test.make ~name:(tname ^ ": adjacent intervals tile, every mode") ~count:1500
    QCheck.unit
    (fun () ->
      let x = random_double ~max_exp st in
      List.for_all
        (fun mode ->
          let p = T.of_double ~mode x in
          match T.classify p with
          | R.Inf _ | R.Nan -> true
          | R.Finite -> (
              let i = Rlibm.Rounding.interval (module T) ~mode p in
              if not (Float.is_finite i.hi) then true
              else
                (* First real past p's region; the pattern owning it is
                   the next value up. *)
                let x' = if i.hi_open then i.hi else Fp.Fp64.next_up i.hi in
                let q = T.of_double ~mode x' in
                match T.classify q with
                | R.Inf _ | R.Nan -> true
                | R.Finite ->
                    (not (pattern_value_equal (module T) q p))
                    &&
                    let j = Rlibm.Rounding.interval (module T) ~mode q in
                    if M.nearest mode then
                      (* Closed double boxes, one double apart. *)
                      (not i.hi_open) && (not j.lo_open) && Fp.Fp64.steps i.hi j.lo = 1L
                    else
                      (* Shared boundary value, exactly one side open. *)
                      j.lo = i.hi && j.lo_open = not i.hi_open))
        M.all)

let interval_props (module T : R.S) tname ~max_exp =
  [
    prop_differential (module T) tname ~max_exp;
    prop_membership (module T) tname ~max_exp;
    prop_tiling (module T) tname ~max_exp;
  ]

(* ------------------------------------------------------------------ *)
(* search_max at its extreme bound.                                    *)
(* ------------------------------------------------------------------ *)

(* The interval search brackets up to max_int double steps (an IEEE
   infinity pattern's region reaches ~4.5e18 doubles for float16); the
   doubling must clamp instead of wrapping negative. *)
let test_search_max_extreme () =
  let sm = Rlibm.Rounding.search_max in
  Alcotest.(check int) "bound itself" max_int (sm (fun _ -> true) max_int);
  Alcotest.(check int) "max_int - 1" (max_int - 1) (sm (fun k -> k <= max_int - 1) max_int);
  Alcotest.(check int) "only zero" 0 (sm (fun k -> k = 0) max_int);
  let deep = 4_540_000_000_000_000_000 (* ~ the float16 +inf reach *) in
  Alcotest.(check int) "float16-inf-scale reach" deep (sm (fun k -> k <= deep) max_int);
  Alcotest.(check int) "2^61" (1 lsl 61) (sm (fun k -> k <= 1 lsl 61) max_int);
  Alcotest.(check int) "max_reach covers the deep case" max_int Rlibm.Rounding.max_reach

(* ------------------------------------------------------------------ *)
(* Shared-closure batch determinism (domain-local scratch).            *)
(* ------------------------------------------------------------------ *)

let gen () = Funcs.Libm.get ~quality:Funcs.Libm.Quick Funcs.Specs.bfloat16 "log2"

let test_batch_jobs_deterministic () =
  let g = gen () in
  let src = Rlibm.Enumerate.exhaustive16 in
  let run j =
    Parallel.set_jobs j;
    let dst = Array.make (Array.length src) 0 in
    Funcs.Batch.eval_patterns g src dst;
    dst
  in
  let want = run 1 in
  List.iter
    (fun j ->
      Alcotest.(check bool) (Printf.sprintf "jobs=%d bit-identical" j) true (run j = want))
    [ 2; 4 ];
  Parallel.set_jobs 1

(* One compiled closure called concurrently from four domains: the
   domain-local scratch keeps every call's result equal to the
   sequential one. *)
let test_compile_reentrant () =
  let g = gen () in
  let f = Rlibm.Generator.compile g in
  let pats = Array.init 4096 (fun i -> i * 16) in
  let want = Array.map f pats in
  let doms = Array.init 4 (fun _ -> Domain.spawn (fun () -> Array.map f pats)) in
  Array.iteri
    (fun i d ->
      Alcotest.(check bool) (Printf.sprintf "domain %d matches" i) true (Domain.join d = want))
    doms

let () =
  Alcotest.run "modes"
    [
      qsuite "bfloat16" (interval_props (module Fp.Bfloat16) "bfloat16" ~max_exp:45);
      qsuite "float16" (interval_props (module Fp.Float16) "float16" ~max_exp:20);
      qsuite "float32" (interval_props (module Fp.Fp32) "float32" ~max_exp:45);
      qsuite "posit16" (interval_props (module Posit.Posit16) "posit16" ~max_exp:20);
      ( "search_max",
        [ Alcotest.test_case "clamped doubling at max_int" `Quick test_search_max_extreme ] );
      ( "batch",
        [
          Alcotest.test_case "eval_patterns bit-identical at jobs 1/2/4" `Slow
            test_batch_jobs_deterministic;
          Alcotest.test_case "compiled closure reentrant across domains" `Slow
            test_compile_reentrant;
        ] );
      pinned_suite "pinned"
        [
          ( "bfloat16 log2 quick",
            "fnv1a:1df4a58e8a47f4d2",
            fun () -> Rlibm.Generator.tables_fingerprint (gen ()) );
        ];
    ]
