(* Shared helpers for the test suites. *)

module Q = Rational
module B = Bigint

(* Deterministic pseudo-random state per suite, so failures reproduce. *)
let rand seed = Random.State.make [| 0x5EED; seed |]

(* Random Bigint with roughly [bits] bits, either sign. *)
let random_bigint st bits =
  let x = ref B.zero in
  let chunks = (bits / 30) + 1 in
  for _ = 1 to chunks do
    x := B.add (B.shift_left !x 30) (B.of_int (Random.State.full_int st (1 lsl 30)))
  done;
  if Random.State.bool st then B.neg !x else !x

let random_nonzero_bigint st bits =
  let rec go () =
    let x = random_bigint st bits in
    if B.is_zero x then go () else x
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Differential-testing support: build the same value in the live       *)
(* [Bigint] and in the frozen naive reference ([Ref_bigint]) from one   *)
(* stream of random chunks, so no conversion path is trusted.           *)
(* ------------------------------------------------------------------ *)

module Ref = Ref_bigint

(* Exactly [bits] bits (top bit set) when [bits > 0], same value in both
   representations; sign chosen by the same coin. *)
let bigint_pair ?(exact = false) st bits =
  let b = ref B.zero and r = ref Ref.zero in
  let chunks = (bits + 29) / 30 in
  for i = 1 to chunks do
    let width = if i = 1 && bits mod 30 <> 0 then bits mod 30 else 30 in
    let c = Random.State.full_int st (1 lsl width) in
    let c = if exact && i = 1 then c lor (1 lsl (width - 1)) else c in
    b := B.add (B.shift_left !b width) (B.of_int c);
    r := Ref.add (Ref.shift_left !r width) (Ref.of_int c)
  done;
  if Random.State.bool st then (B.neg !b, Ref.neg !r) else (!b, !r)

let nonzero_bigint_pair ?exact st bits =
  let rec go () =
    let (b, _) as p = bigint_pair ?exact st bits in
    if B.is_zero b then go () else p
  in
  go ()

(* Value equality across the two representations, via their independent
   decimal printers. *)
let ref_eq b r = String.equal (B.to_string b) (Ref.to_string r)

(* Random finite double spread over many binades. *)
let random_double ?(max_exp = 300) st =
  let m = Random.State.float st 2.0 -. 1.0 in
  Float.ldexp m (Random.State.int st (2 * max_exp) - max_exp)

let random_rational st bits = Q.make (random_bigint st bits) (random_nonzero_bigint st bits)

(* ulp distance between doubles, for oracle-vs-libm comparisons. *)
let ulps a b = Int64.abs (Int64.sub (Int64.bits_of_float a) (Int64.bits_of_float b))

(* Value-equality of two patterns of T: equal patterns, or both encode
   the same real (catches -0.0 vs +0.0), or both NaN. *)
let pattern_value_equal (module T : Fp.Representation.S) a b =
  a = b
  ||
  match (T.classify a, T.classify b) with
  | Fp.Representation.Finite, Fp.Representation.Finite -> T.to_double a = T.to_double b
  | Fp.Representation.Nan, Fp.Representation.Nan -> true
  | _ -> false

(* Alcotest testables. *)
let bigint = Alcotest.testable B.pp B.equal
let rational = Alcotest.testable Q.pp Q.equal

let qsuite name cases = (name, List.map QCheck_alcotest.to_alcotest cases)

(* Byte-identity guard over generated tables: one case per (label,
   pinned Rlibm.Generator.tables_fingerprint, thunk computing the current
   one).  The pins were recorded from the generator before the flat
   families' reduction and compensation moved into Serve.Kernel; any
   drift in reduction, compensation or fitting fails here instead of
   waiting for a manual `generate dump` diff.  The thunks fetch tables
   the suite generates anyway (Funcs.Libm caches per process). *)
let pinned_suite name cases =
  ( name,
    List.map
      (fun (label, want, got) ->
        Alcotest.test_case label `Slow (fun () ->
            Alcotest.(check string) (label ^ ": tables fingerprint") want (got ())))
      cases )
