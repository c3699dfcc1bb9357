(* LP: simplex kernel and the active-set polynomial fitter. *)

module Q = Rational
module S = Lp.Simplex
module P = Lp.Polyfit
open Test_util

let st = rand 6
let q = Q.of_int

let feasible_point a b = function
  | S.Feasible x ->
      Array.iteri
        (fun i row ->
          let v = ref Q.zero in
          Array.iteri (fun j c -> v := Q.add !v (Q.mul c x.(j))) row;
          if Q.compare !v b.(i) > 0 then Alcotest.failf "row %d violated" i)
        a;
      true
  | S.Infeasible | S.Unknown -> false

let test_simplex_1d () =
  let a = [| [| q 1 |]; [| q (-1) |] |] in
  let b = [| q 3; q (-1) |] in
  Alcotest.(check bool) "x in [1,3]" true (feasible_point a b (S.feasible ~a ~b));
  let b' = [| q 1; q (-2) |] in
  Alcotest.(check bool)
    "empty [2,1]"
    true
    (S.feasible ~a ~b:b' = S.Infeasible)

let test_simplex_equality_like () =
  (* x + y <= 1 and x + y >= 1 pin the sum. *)
  let a = [| [| q 1; q 1 |]; [| q (-1); q (-1) |]; [| q (-1); q 0 |] |] in
  let b = [| q 1; q (-1); q 5 |] in
  match S.feasible ~a ~b with
  | S.Feasible x -> Alcotest.check rational "x+y=1" Q.one (Q.add x.(0) x.(1))
  | _ -> Alcotest.fail "should be feasible"

let test_simplex_negative_solution () =
  (* Force a negative free variable: x <= -5. *)
  let a = [| [| q 1 |] |] and b = [| q (-5) |] in
  match S.feasible ~a ~b with
  | S.Feasible x -> Alcotest.(check bool) "x <= -5" true (Q.compare x.(0) (q (-5)) <= 0)
  | _ -> Alcotest.fail "feasible"

let test_simplex_degenerate () =
  (* Many redundant rows pinning the same point. *)
  let rows = 40 in
  let a = Array.init rows (fun i -> if i mod 2 = 0 then [| q 1 |] else [| q (-1) |]) in
  let b = Array.init rows (fun i -> if i mod 2 = 0 then q 7 else q (-7)) in
  match S.feasible ~a ~b with
  | S.Feasible x -> Alcotest.check rational "pinned" (q 7) x.(0)
  | _ -> Alcotest.fail "feasible"

let prop_simplex_random_feasible =
  QCheck.Test.make ~name:"random systems built around a known point" ~count:120 QCheck.unit
    (fun () ->
      (* Draw a point, then constraints that the point satisfies. *)
      let nv = 1 + Random.State.int st 4 in
      let m = 1 + Random.State.int st 25 in
      let point = Array.init nv (fun _ -> Q.of_ints (Random.State.int st 41 - 20) (1 + Random.State.int st 7)) in
      let a =
        Array.init m (fun _ -> Array.init nv (fun _ -> q (Random.State.int st 11 - 5)))
      in
      let b =
        Array.init m (fun i ->
            let v = ref Q.zero in
            Array.iteri (fun j c -> v := Q.add !v (Q.mul c point.(j))) a.(i);
            Q.add !v (Q.of_ints (Random.State.int st 5) 3))
      in
      feasible_point a b (S.feasible ~a ~b))

let prop_simplex_farkas =
  QCheck.Test.make ~name:"contradictory band is infeasible" ~count:100 QCheck.unit (fun () ->
      (* a.x <= c and -a.x <= -(c + gap) with gap > 0 cannot both hold. *)
      let nv = 1 + Random.State.int st 3 in
      let coeff = Array.init nv (fun _ -> q (1 + Random.State.int st 5)) in
      let c = q (Random.State.int st 10) in
      let a = [| coeff; Array.map Q.neg coeff |] in
      let b = [| c; Q.sub (Q.neg c) Q.one |] in
      S.feasible ~a ~b = S.Infeasible)

(* ------------------------------------------------------------------ *)
(* Revised vs reference, and the warm-started state.                   *)
(* ------------------------------------------------------------------ *)

let random_system ?(nv_max = 4) ?(m_max = 25) () =
  let nv = 1 + Random.State.int st nv_max in
  let m = 1 + Random.State.int st m_max in
  let a = Array.init m (fun _ -> Array.init nv (fun _ -> q (Random.State.int st 11 - 5))) in
  let b =
    Array.init m (fun _ -> Q.of_ints (Random.State.int st 21 - 10) (1 + Random.State.int st 4))
  in
  (a, b)

let same_outcome r1 r2 =
  match (r1, r2) with
  | S.Feasible x, S.Feasible y -> Array.for_all2 Q.equal x y
  | S.Infeasible, S.Infeasible | S.Unknown, S.Unknown -> true
  | _ -> false

let same_verdict r1 r2 =
  match (r1, r2) with
  | S.Feasible _, S.Feasible _ | S.Infeasible, S.Infeasible | S.Unknown, S.Unknown -> true
  | _ -> false

(* The revised kernel must replay the dense tableau *exactly*: same
   verdict and the same returned point (bit-identical tables depend on
   this). *)
let prop_revised_replays_reference =
  QCheck.Test.make ~name:"revised = dense reference (outcome and point)" ~count:300
    QCheck.unit (fun () ->
      let a, b = random_system () in
      same_outcome (S.feasible ~a ~b) (Ref_simplex.feasible_reference ~a ~b))

let prop_revised_replays_reference_small_refactor =
  QCheck.Test.make ~name:"replay holds across refactorization boundaries" ~count:120
    QCheck.unit (fun () ->
      let saved = !S.refactor_interval in
      S.refactor_interval := 1 + Random.State.int st 3;
      let a, b = random_system () in
      let ok = same_outcome (S.feasible ~a ~b) (Ref_simplex.feasible_reference ~a ~b) in
      S.refactor_interval := saved;
      ok)

(* Klee-Minty-flavoured degenerate stack: many tight, redundant rows
   around one vertex — the classic cycling trap Bland's rule avoids. *)
let test_degenerate_cycling_guard () =
  let nv = 3 in
  let rows = ref [] in
  for i = 0 to nv - 1 do
    let r = Array.make nv Q.zero in
    r.(i) <- Q.one;
    rows := (Array.copy r, Q.zero) :: !rows;
    r.(i) <- Q.minus_one;
    rows := (r, Q.zero) :: !rows
  done;
  (* Redundant combinations of the tight rows, all through the origin. *)
  for k = 0 to 9 do
    let r = Array.init nv (fun j -> q (((k + j) mod 5) - 2)) in
    rows := (r, Q.zero) :: !rows
  done;
  let rows = Array.of_list !rows in
  let a = Array.map fst rows and b = Array.map snd rows in
  (match S.feasible ~a ~b with
  | S.Feasible x -> Array.iter (fun v -> Alcotest.check rational "origin" Q.zero v) x
  | _ -> Alcotest.fail "degenerate system is feasible (origin)");
  Alcotest.(check bool) "matches reference" true
    (same_outcome (S.feasible ~a ~b) (Ref_simplex.feasible_reference ~a ~b))

(* Regression: the original dense kernel initialized the phase-1
   criterion row to the z-row (artificial entries 1) rather than z - c
   (0), overstating a departed artificial's reduced cost by 1; the
   artificial could wrongly re-enter, corrupting the "objective rhs =
   artificial sum" invariant, and this two-row system — y >= 3/4 and
   y <= -2/3 — came back Feasible.  Artificials are now barred from
   re-entering (in both kernels). *)
let test_artificial_reentry_soundness () =
  let a = [| [| q 0; q (-4); q 0 |]; [| q 0; q 1; q 0 |] |] in
  let b = [| q (-3); Q.of_ints (-2) 3 |] in
  Alcotest.(check bool) "reference sound" true (Ref_simplex.feasible_reference ~a ~b = S.Infeasible);
  Alcotest.(check bool) "revised sound" true (S.feasible ~a ~b = S.Infeasible);
  let stt = S.create ~nv:3 in
  Array.iteri (fun i row -> ignore (S.add_row stt row b.(i))) a;
  Alcotest.(check bool) "warm sound" true (S.solve stt = S.Infeasible)

let test_infeasible_variants () =
  (* Plain contradiction. *)
  let a = [| [| q 2; q 3 |]; [| q (-2); q (-3) |] |] in
  let b = [| q 1; q (-2) |] in
  Alcotest.(check bool) "band" true (S.feasible ~a ~b = S.Infeasible);
  (* Infeasibility only visible through a combination of three rows. *)
  let a = [| [| q 1; q 1 |]; [| q 1; q (-1) |]; [| q (-1); q 0 |] |] in
  let b = [| q 0; q 0; q (-1) |] in
  Alcotest.(check bool) "triple" true (S.feasible ~a ~b = S.Infeasible)

let warm_of_system a b =
  let stt = S.create ~nv:(Array.length a.(0)) in
  Array.iteri (fun i row -> ignore (S.add_row stt row b.(i))) a;
  stt

let test_warm_basic () =
  let a = [| [| q 1 |]; [| q (-1) |] |] and b = [| q 3; q (-1) |] in
  let stt = warm_of_system a b in
  Alcotest.(check bool) "feasible" true (feasible_point a b (S.solve stt));
  (* Tighten to infeasible via set_rhs, then loosen back. *)
  S.set_rhs stt 0 (q 0);
  Alcotest.(check bool) "tightened" true (S.solve stt = S.Infeasible);
  S.set_rhs stt 0 (q 3);
  Alcotest.(check bool) "loosened" true (feasible_point a b (S.solve stt))

let test_warm_drop_rows () =
  let a = [| [| q 1; q 0 |]; [| q 0; q 1 |]; [| q (-1); q 0 |]; [| q (-1); q (-1) |] |] in
  let b = [| q 2; q 2; q (-1); q (-10) |] in
  let stt = warm_of_system a b in
  Alcotest.(check bool) "over-constrained infeasible" true (S.solve stt = S.Infeasible);
  (* Dropping the contradictory row restores feasibility. *)
  S.drop_rows stt ~keep:(fun i -> i <> 3);
  let a' = [| a.(0); a.(1); a.(2) |] and b' = [| b.(0); b.(1); b.(2) |] in
  Alcotest.(check bool) "after drop" true (feasible_point a' b' (S.solve stt));
  Alcotest.(check int) "row count" 3 (S.nrows stt)

(* The differential suite the issue asks for: grow a random system row
   by row; after every edit the warm verdict must equal a cold solve of
   the same system.  Also exercises copy + drop_rows divergence. *)
let prop_warm_equals_cold_grown =
  QCheck.Test.make ~name:"warm solve = cold solve on grown systems" ~count:120 QCheck.unit
    (fun () ->
      let nv = 1 + Random.State.int st 3 in
      let stt = S.create ~nv in
      let rows = ref [] in
      let steps = 3 + Random.State.int st 12 in
      let ok = ref true in
      for _ = 1 to steps do
        let row = Array.init nv (fun _ -> q (Random.State.int st 9 - 4)) in
        let rhs = Q.of_ints (Random.State.int st 15 - 7) (1 + Random.State.int st 3) in
        ignore (S.add_row stt row rhs);
        rows := (row, rhs) :: !rows;
        let sys = Array.of_list (List.rev !rows) in
        let a = Array.map fst sys and b = Array.map snd sys in
        let warm = S.solve stt and cold = S.feasible ~a ~b in
        (match warm with
        | S.Feasible x ->
            Array.iteri
              (fun i r ->
                let v = ref Q.zero in
                Array.iteri (fun j c -> v := Q.add !v (Q.mul c x.(j))) r;
                if Q.compare !v b.(i) > 0 then ok := false)
              a
        | _ -> ());
        if not (same_verdict warm cold) then ok := false
      done;
      !ok)

let prop_warm_drop_rows_random =
  QCheck.Test.make ~name:"drop_rows keeps warm = cold" ~count:80 QCheck.unit (fun () ->
      let nv = 1 + Random.State.int st 3 in
      let m = 4 + Random.State.int st 12 in
      let a = Array.init m (fun _ -> Array.init nv (fun _ -> q (Random.State.int st 9 - 4))) in
      let b = Array.init m (fun _ -> Q.of_ints (Random.State.int st 15 - 7) (1 + Random.State.int st 3)) in
      let stt = warm_of_system a b in
      ignore (S.solve stt);
      (* Keep a random subset (the copy keeps solving the full system). *)
      let keep = Array.init m (fun _ -> Random.State.bool st) in
      if not (Array.exists Fun.id keep) then keep.(0) <- true;
      let clone = S.copy stt in
      S.drop_rows stt ~keep:(fun i -> keep.(i));
      let idx = ref [] in
      for i = m - 1 downto 0 do
        if keep.(i) then idx := i :: !idx
      done;
      let idx = Array.of_list !idx in
      let a' = Array.map (fun i -> a.(i)) idx and b' = Array.map (fun i -> b.(i)) idx in
      same_verdict (S.solve stt) (S.feasible ~a:a' ~b:b')
      && same_verdict (S.solve clone) (S.feasible ~a ~b))

(* ------------------------------------------------------------------ *)
(* Polyfit.                                                            *)
(* ------------------------------------------------------------------ *)

let cons_of_fn f ?(tol = 1e-9) pts = Array.of_list (List.map (fun r -> { P.r; lo = f r -. tol; hi = f r +. tol; lo_open = false; hi_open = false }) pts)

let validate terms coeffs cons =
  Array.iter
    (fun { P.r; lo; hi; _ } ->
      let v = Q.to_float (P.eval_exact ~terms coeffs r) in
      if not (v >= lo -. 1e-12 && v <= hi +. 1e-12) then Alcotest.failf "violated at %h" r)
    cons

let test_fit_cubic () =
  let f x = 1.0 +. (0.5 *. x) -. (0.25 *. x *. x *. x) in
  let pts = List.init 200 (fun i -> float_of_int i /. 200.0) in
  let cons = cons_of_fn f pts in
  match P.fit ~terms:[| 0; 1; 2; 3 |] cons with
  | Some c -> validate [| 0; 1; 2; 3 |] c cons
  | None -> Alcotest.fail "cubic fit failed"

let test_fit_odd_structure () =
  let f x = x -. (x *. x *. x /. 6.0) in
  let pts = List.init 150 (fun i -> float_of_int (i + 1) /. 300.0) in
  let cons = cons_of_fn ~tol:1e-7 f pts in
  match P.fit ~terms:[| 1; 3 |] cons with
  | Some c -> validate [| 1; 3 |] c cons
  | None -> Alcotest.fail "odd fit failed"

let test_fit_infeasible () =
  let cons =
    [| { P.r = 0.5; lo = 1.0; hi = 2.0; lo_open = false; hi_open = false }; { P.r = 0.5; lo = 3.0; hi = 4.0; lo_open = false; hi_open = false } |]
  in
  Alcotest.(check bool) "contradiction" true (P.fit ~terms:[| 0; 1 |] cons = None);
  (* Quadratic data cannot be matched by a line at 1e-9 tolerance. *)
  let parab = cons_of_fn (fun x -> x *. x) (List.init 9 (fun i -> float_of_int i /. 8.0)) in
  Alcotest.(check bool) "degree too low" true (P.fit ~terms:[| 0; 1 |] parab = None)

let test_fit_tiny_domain_scaling () =
  (* Scaling must handle r ~ 2^-40 without conditioning collapse. *)
  let f x = 1.0 +. x in
  let pts = List.init 60 (fun i -> Float.ldexp (1.0 +. (float_of_int i /. 64.0)) (-40)) in
  let cons = cons_of_fn ~tol:1e-20 f pts in
  match P.fit ~terms:[| 0; 1; 2 |] cons with
  | Some c -> validate [| 0; 1; 2 |] c cons
  | None -> Alcotest.fail "tiny-domain fit failed"

let test_eval_exact () =
  let c = [| Q.of_int 2; Q.of_ints 1 2 |] in
  Alcotest.check rational "2 + x/2 at 3" (Q.of_ints 7 2) (P.eval_exact ~terms:[| 0; 1 |] c 3.0);
  let codd = [| Q.one; Q.of_int 2 |] in
  Alcotest.check rational "x + 2x^3 at 2" (Q.of_int 18) (P.eval_exact ~terms:[| 1; 3 |] codd 2.0)

let prop_fit_random_poly =
  QCheck.Test.make ~name:"recovers random polynomials within tolerance" ~count:25 QCheck.unit
    (fun () ->
      let deg = 1 + Random.State.int st 3 in
      let coeffs = Array.init (deg + 1) (fun _ -> Random.State.float st 4.0 -. 2.0) in
      let f x =
        let acc = ref 0.0 in
        Array.iteri (fun i c -> acc := !acc +. (c *. Float.pow x (float_of_int i))) coeffs;
        !acc
      in
      let pts = List.init 80 (fun i -> float_of_int i /. 80.0) in
      let cons = cons_of_fn ~tol:1e-6 f pts in
      let terms = Array.init (deg + 1) (fun i -> i) in
      match P.fit ~terms cons with
      | Some c ->
          Array.for_all
            (fun { P.r; lo; hi; _ } ->
              let v = Q.to_float (P.eval_exact ~terms c r) in
              v >= lo -. 1e-9 && v <= hi +. 1e-9)
            cons
      | None -> false)

(* Simplex is deterministic: same input, same answer (Bland's rule has
   no randomness; this pins it). *)
let prop_simplex_deterministic =
  QCheck.Test.make ~name:"deterministic" ~count:50 QCheck.unit (fun () ->
      let nv = 1 + Random.State.int st 3 in
      let m = 1 + Random.State.int st 10 in
      let a = Array.init m (fun _ -> Array.init nv (fun _ -> q (Random.State.int st 9 - 4))) in
      let b = Array.init m (fun _ -> q (Random.State.int st 9 - 4)) in
      let same r1 r2 =
        match (r1, r2) with
        | S.Feasible x, S.Feasible y -> Array.for_all2 Q.equal x y
        | S.Infeasible, S.Infeasible | S.Unknown, S.Unknown -> true
        | _ -> false
      in
      same (S.feasible ~a ~b) (S.feasible ~a ~b))

(* Polynomial fitting is scale-covariant: scaling all inputs by 2^k and
   fitting yields a polynomial making the same predictions at the scaled
   points. *)
let test_fit_scale_covariant () =
  let f x = 0.5 +. (2.0 *. x) in
  let pts = List.init 50 (fun i -> float_of_int (i + 1) /. 64.0) in
  let cons k =
    Array.of_list
      (List.map
         (fun r0 ->
           let r = Float.ldexp r0 k in
           { P.r; lo = f r0 -. 1e-9; hi = f r0 +. 1e-9; lo_open = false; hi_open = false })
         pts)
  in
  match (P.fit ~terms:[| 0; 1 |] (cons 0), P.fit ~terms:[| 0; 1 |] (cons (-20))) with
  | Some c0, Some c1 ->
      List.iter
        (fun r0 ->
          let v0 = Q.to_float (P.eval_exact ~terms:[| 0; 1 |] c0 r0) in
          let v1 = Q.to_float (P.eval_exact ~terms:[| 0; 1 |] c1 (Float.ldexp r0 (-20))) in
          if Float.abs (v0 -. v1) > 1e-8 then Alcotest.failf "scale mismatch at %h" r0)
        pts
  | _ -> Alcotest.fail "fits failed"

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "1d interval" `Quick test_simplex_1d;
          Alcotest.test_case "equality via band" `Quick test_simplex_equality_like;
          Alcotest.test_case "negative solution" `Quick test_simplex_negative_solution;
          Alcotest.test_case "degenerate rows" `Quick test_simplex_degenerate;
        ] );
      qsuite "simplex-properties"
        [ prop_simplex_random_feasible; prop_simplex_farkas; prop_simplex_deterministic ];
      ( "simplex-revised",
        [
          Alcotest.test_case "degenerate cycling guard" `Quick test_degenerate_cycling_guard;
          Alcotest.test_case "artificial re-entry soundness" `Quick test_artificial_reentry_soundness;
          Alcotest.test_case "infeasible variants" `Quick test_infeasible_variants;
          Alcotest.test_case "warm basic" `Quick test_warm_basic;
          Alcotest.test_case "warm drop rows" `Quick test_warm_drop_rows;
        ] );
      qsuite "simplex-replay"
        [ prop_revised_replays_reference; prop_revised_replays_reference_small_refactor ];
      qsuite "simplex-warm" [ prop_warm_equals_cold_grown; prop_warm_drop_rows_random ];
      ( "polyfit",
        [
          Alcotest.test_case "cubic" `Quick test_fit_cubic;
          Alcotest.test_case "odd structure" `Quick test_fit_odd_structure;
          Alcotest.test_case "infeasible" `Quick test_fit_infeasible;
          Alcotest.test_case "tiny-domain scaling" `Quick test_fit_tiny_domain_scaling;
          Alcotest.test_case "eval_exact" `Quick test_eval_exact;
          Alcotest.test_case "scale covariant" `Quick test_fit_scale_covariant;
        ] );
      qsuite "polyfit-properties" [ prop_fit_random_poly ];
    ]
