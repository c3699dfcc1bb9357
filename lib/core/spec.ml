(* Function specifications: everything the generator needs to know about
   one elementary function over one target representation — the oracle,
   the special cases, the range reduction RR_H, its component functions
   f_i, and the output compensation OC_H (§3 of the paper).

   H is always double: [reduce], [compensate] and the generated
   polynomial evaluation all run in native floats, exactly as the
   paper's library does (§4.1). *)

(* Result of range reduction for one input.  [r] is the reduced input
   fed to every component polynomial; [key] packs whatever the output
   compensation needs to reconstruct the result (table indices, signs),
   opaque to the pipeline. *)
type reduction = { r : float; key : int }

type component = {
  cname : string;  (* e.g. "sinpi_r" *)
  coracle : Oracle.Elementary.fn;  (* the real function of the reduced input *)
  terms : int array;  (* exponents of the polynomial; the paper's odd/even structure *)
  dom_pos : (float * float) option;
      (* Analytic hull of the *positive* nonzero reduced inputs,
         [0 < lo <= hi].  The paper derives the sub-domain index from the
         observed min/max bit patterns, which it can do because it
         enumerates every input; under sampled enumeration the hull must
         come from the range reduction itself or unseen inputs could
         alias into the wrong sub-domain. *)
  dom_neg : (float * float) option;  (* hull of negative reduced inputs, [lo <= hi < 0] *)
}

(* The flat serving kernel's description of a spec's run-time path: the
   range reduction and output compensation ({!Serve.Kernel.reduce} and
   {!Serve.Kernel.compensate} interpret [family]; the spec's [reduce]
   and [compensate] closures are derived from it), the special-region
   probe, and the IEEE field decode ([None] for posits, which serve
   through the closures only). *)
type kernel = {
  family : Serve.Kernel.family;
  check : Serve.Kernel.check;
  fmt : Fp.Ieee.format option;
}

type t = {
  name : string;
  repr : (module Fp.Representation.S);
  mode : Fp.Rounding_mode.t;
      (* The target rounding mode: the oracle result, the rounding
         intervals and the run-time double -> pattern step all round
         under it.  RNE for ordinary targets; Odd for the extended
         (n+2)-bit tables of the RLIBM-ALL construction, whose results
         then serve every standard mode by re-rounding. *)
  oracle : Oracle.Elementary.fn;  (* f itself, exact over rationals *)
  special : int -> int option;
      (* [special pattern] is [Some result_pattern] when the input is
         handled outside the polynomial path (NaN/inf/NaR, saturated
         regions, tiny inputs). *)
  reduce : float -> reduction;
  components : component array;
  compensate : reduction -> float array -> float;
      (* OC_H: component values at [r] -> double result for x.  Must be
         jointly monotone in the component values (§3.2) unless
         [oc_corners] is set. *)
  oc_corners : bool;
      (* The §3.2 deduction widens all components jointly and probes the
         diagonal, which is sound only when OC is monotone in the same
         direction in every component.  A quotient OC (tan = sin/cos) is
         monotone in each component separately but in *opposite*
         directions, so the box extremes live at corners: setting this
         makes {!Reduced.deduce} probe every sign combination of the
         (symmetric) widening instead of the diagonal.  Sound whenever OC
         is coordinate-wise monotone over the probed box — for a
         quotient, whenever the denominator box cannot reach zero, which
         the [max_widen] clamp guarantees (2^50 double-ulps never cross a
         binade's worth of magnitude). *)
  split_hint : int;
      (* Designer-chosen starting split depth (2^hint sub-domains): the
         paper's performance criterion (§3.3, Table 3 ships 2^6..2^14
         tables for most functions).  Deeper tables also shrink the
         polynomial's error between enumerated inputs, which matters
         under sampled generation. *)
  kernel : kernel option;
      (* [Some] for the flat families, whose [reduce]/[compensate] must
         then be the descriptor's; a spec that overrides either closure
         must clear it, or the kernel would serve other arithmetic than
         the tables were fitted against. *)
}

(* Degree of a component's polynomial (largest exponent). *)
let degree c = Array.fold_left Stdlib.max 0 c.terms
