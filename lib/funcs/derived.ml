(* RLIBM-ALL derived evaluation (Lim & Nagarakatte 2021): one float34
   round-to-odd table serves bfloat16 and float16 — and float32 — in
   every standard rounding mode.

   Base pattern -> exact double -> float34 pattern -> to-odd table ->
   exact double (a float34 value has at most 27 significant bits, well
   inside a double's 53) -> re-round to the base format under the
   requested mode.

   Correctness is the to-odd re-rounding theorem: the extended format
   carries at least two more mantissa bits than the base over the same
   (or wider) exponent range, so every base rounding boundary — values,
   midpoints, and the overflow/underflow edges — is exactly
   representable in the extended format.  Round-to-odd never crosses a
   representable value it doesn't land on, and never lands on an even
   pattern unless the exact result is that value; hence the odd result
   and the exact real sit strictly on the same side of every base
   boundary, and re-rounding either gives the same pattern. *)

module G = Rlibm.Generator

(** [fn (module B) ~mode name] compiles the derived evaluator for base
    representation [B] (at most float32-sized) under [mode], driven by
    the float34 round-to-odd table of [name].  The heavy generation
    happens once per function (cached in {!Libm}); the returned closure
    is reentrant — see {!G.compile}.
    @raise Invalid_argument if [name] is outside
    [Specs.non_nearest_functions Odd] (exp10 included: see there).
    @raise Failure if float34 generation fails. *)
let fn ?quality ?cfg (module B : Fp.Representation.S) ~mode name =
  let g = Libm.get ?quality ?cfg Specs.float34 name in
  let f = G.compile g in
  let module X = Specs.Float34 in
  fun pat -> B.of_double ~mode (X.to_double (f (X.of_base_double (B.to_double pat))))

(** Pattern-level one-shot entry point. *)
let eval_pattern ?quality ?cfg (module B : Fp.Representation.S) ~mode name pat =
  (fn ?quality ?cfg (module B) ~mode name) pat
