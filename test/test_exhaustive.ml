(* 16-bit differential tier: the generated log2 and exp checked against
   the arbitrary-precision oracle on bfloat16 and float16 inputs,
   through the sharded validation engine; plus the RLIBM-ALL derived
   tier, where the SAME two functions are evaluated for both targets in
   all five standard rounding modes through the single float34
   round-to-odd table and checked against the mode-aware oracle.

   Default (`dune runtest`): a strided subset — every 16th pattern — so
   the tier stays fast.  With RLIBM_EXHAUSTIVE=1 (the @exhaustive
   alias, `make check-full`): every one of the 65536 patterns of each
   target, the scale at which our guarantee equals the paper's. *)

module R = Fp.Representation
open Test_util

let exhaustive =
  match Sys.getenv_opt "RLIBM_EXHAUSTIVE" with Some ("1" | "true") -> true | _ -> false

let patterns () =
  if exhaustive then Rlibm.Enumerate.exhaustive16
  else Array.init (65536 / 16) (fun i -> i * 16)

let differential (target : Funcs.Specs.target) name () =
  let module T = (val target.repr) in
  let g = Funcs.Libm.get target name in
  let spec = g.Rlibm.Generator.spec in
  let pats = patterns () in
  let bad =
    Parallel.fold_chunks ~n:(Array.length pats) ~combine:( + ) ~init:0
      (fun ~lo ~hi ->
        let bad = ref 0 in
        for k = lo to hi - 1 do
          let pat = pats.(k) in
          let want =
            match spec.special pat with
            | Some y -> y
            | None ->
                Oracle.Elementary.correctly_rounded ~round:T.round_rational spec.oracle
                  (T.to_rational pat)
          in
          if not (pattern_value_equal (module T) (Rlibm.Generator.eval_pattern g pat) want) then
            incr bad
        done;
        !bad)
  in
  Alcotest.(check int)
    (Printf.sprintf "%s %s: misrounded inputs (of %d)" target.tname name (Array.length pats))
    0 bad

let tier (target : Funcs.Specs.target) =
  ( target.tname,
    List.map
      (fun name -> Alcotest.test_case (name ^ " vs oracle") `Slow (differential target name))
      [ "log2"; "exp" ] )

(* Derived tier: base-format results re-rounded from the float34
   round-to-odd table, compared against the mode-aware oracle (special
   cases from the mode-retargeted spec, everything else from exact
   rational rounding under the mode). *)
let derived_differential (base : Funcs.Specs.target) name mode () =
  let t = Funcs.Specs.with_mode base mode in
  let module T = (val t.repr) in
  let spec = Funcs.Specs.by_name name t in
  let f = Funcs.Derived.fn t.repr ~mode name in
  let pats = patterns () in
  let bad =
    Parallel.fold_chunks ~n:(Array.length pats) ~combine:( + ) ~init:0
      (fun ~lo ~hi ->
        let bad = ref 0 in
        for k = lo to hi - 1 do
          let pat = pats.(k) in
          let want =
            match spec.Rlibm.Spec.special pat with
            | Some y -> y
            | None ->
                Oracle.Elementary.correctly_rounded
                  ~round:(T.round_rational ~mode)
                  spec.Rlibm.Spec.oracle (T.to_rational pat)
          in
          if not (pattern_value_equal (module T) (f pat) want) then incr bad
        done;
        !bad)
  in
  Alcotest.(check int)
    (Printf.sprintf "%s %s@%s derived: misrounded inputs (of %d)" base.tname name
       (Fp.Rounding_mode.to_string mode)
       (Array.length pats))
    0 bad

let derived_tier (base : Funcs.Specs.target) =
  ( base.tname ^ "-derived",
    List.concat_map
      (fun name ->
        List.map
          (fun mode ->
            Alcotest.test_case
              (Printf.sprintf "%s @%s via float34" name (Fp.Rounding_mode.to_string mode))
              `Slow
              (derived_differential base name mode))
          Fp.Rounding_mode.standard)
      [ "log2"; "exp" ] )

let fingerprint t name () = Rlibm.Generator.tables_fingerprint (Funcs.Libm.get t name)

let () =
  if exhaustive then print_endline "RLIBM_EXHAUSTIVE=1: checking all 65536 inputs per target";
  Alcotest.run "exhaustive16"
    [
      tier Funcs.Specs.bfloat16;
      tier Funcs.Specs.float16;
      derived_tier Funcs.Specs.bfloat16;
      derived_tier Funcs.Specs.float16;
      pinned_suite "pinned"
        [
          ("bfloat16 log2", "fnv1a:1df4a58e8a47f4d2", fingerprint Funcs.Specs.bfloat16 "log2");
          ("bfloat16 exp", "fnv1a:3a0196e2900527da", fingerprint Funcs.Specs.bfloat16 "exp");
          ("float16 log2", "fnv1a:32694e969db90804", fingerprint Funcs.Specs.float16 "log2");
          ("float16 exp", "fnv1a:37d1b51709575bf5", fingerprint Funcs.Specs.float16 "exp");
        ];
    ]
