(* The CI bench-regression gate over legacy BENCH_<rev>.json metrics,
   driven through Datafile: parsing, direction inference, gated
   families, and the regressions the gate must flag. *)

module D = Datafile

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let bench_json metrics =
  let b = Buffer.create 256 in
  Buffer.add_string b "{\n  \"rev\": \"abc1234\",\n  \"date\": \"2026-01-01T00:00:00Z\",\n";
  Buffer.add_string b "  \"metrics\": {\n";
  List.iteri
    (fun i (k, v) ->
      Buffer.add_string b
        (Printf.sprintf "    %S: %.3f%s\n" k v (if i = List.length metrics - 1 then "" else ",")))
    metrics;
  Buffer.add_string b "  }\n}\n";
  Buffer.contents b

let base_metrics =
  [
    ("bigint.mixed_small(512).speedup", 2.482);
    ("gen.bfloat16_log2_s", 2.514);
    ("gen.float32_log2_s", 2.2);
    ("lp.warm_grow_speedup", 6.5);
    ("lp.warm_grow_pivots", 15.0);
  ]

let test_parse_roundtrip () =
  let parsed = D.Legacy.parse_metrics (bench_json base_metrics) in
  Alcotest.(check int) "all metrics parsed" (List.length base_metrics) (List.length parsed);
  List.iter2
    (fun (k, v) (k', v') ->
      Alcotest.(check string) "key" k k';
      Alcotest.(check (float 0.0005)) k v v')
    base_metrics parsed

let test_parse_rejects_garbage () =
  Alcotest.check_raises "no metrics object" (D.Parse_error "missing \"\\\"metrics\\\"\"")
    (fun () -> ignore (D.Legacy.parse_metrics "{ \"rev\": \"x\" }"))

let test_direction () =
  Alcotest.(check bool) "time is lower-better" true
    (D.direction_of "gen.float32_log2_s" = D.Lower_better);
  Alcotest.(check bool) "speedup is higher-better" true
    (D.direction_of "lp.warm_grow_speedup" = D.Higher_better);
  Alcotest.(check bool) "throughput is higher-better" true
    (D.direction_of "campaign.inputs_per_sec" = D.Higher_better);
  Alcotest.(check bool) "percentage is higher-better" true
    (D.direction_of "campaign.fast_path_pct" = D.Higher_better);
  Alcotest.(check bool) "campaign time is lower-better" true
    (D.direction_of "campaign.bf16_log2_fast_s" = D.Lower_better);
  Alcotest.(check bool) "gen is gated" true (D.gated "gen.float32_log2_s");
  Alcotest.(check bool) "lp is gated" true (D.gated "lp.dense_solve_ns");
  Alcotest.(check bool) "round is gated" true (D.gated "round.interval_bf16_odd_ns");
  Alcotest.(check bool) "sweep is gated" true (D.gated "sweep.bf16_log2_cold_s");
  Alcotest.(check bool) "campaign is gated" true (D.gated "campaign.inputs_per_sec");
  Alcotest.(check bool) "bigint is not gated" false (D.gated "bigint.mul.speedup")

(* A fast-path share or report-agreement percentage that *drops* is a
   regression even though it is not a time: 100% -> 70% oracle-free
   means the certificate table stopped covering the input space. *)
let test_pct_drop_regresses () =
  let base = [ ("campaign.fast_path_pct", 100.0) ] in
  let curr = [ ("campaign.fast_path_pct", 70.0) ] in
  let vs = D.diff_metrics ~threshold:0.25 base curr in
  Alcotest.(check bool) "fast-path collapse trips the gate" true (D.any_regression vs)

(* The acceptance scenario: a synthetic >25% wall-clock regression in a
   gen.* metric must trip the gate. *)
let test_flags_gen_regression () =
  let curr = List.map (fun (k, v) -> if k = "gen.float32_log2_s" then (k, v *. 1.30) else (k, v)) base_metrics in
  let vs = D.diff_metrics ~threshold:0.25 base_metrics curr in
  Alcotest.(check bool) "regression detected" true (D.any_regression vs);
  let v = List.find (fun (v : D.verdict) -> v.key = "gen.float32_log2_s") vs in
  Alcotest.(check bool) "the gen metric is the one flagged" true v.regressed;
  Alcotest.(check int) "exactly one regression" 1
    (List.length (List.filter (fun (v : D.verdict) -> v.regressed) vs))

(* A speedup metric regresses by *dropping*. *)
let test_flags_lp_speedup_drop () =
  let curr = List.map (fun (k, v) -> if k = "lp.warm_grow_speedup" then (k, v /. 1.4) else (k, v)) base_metrics in
  let vs = D.diff_metrics ~threshold:0.25 base_metrics curr in
  let v = List.find (fun (v : D.verdict) -> v.key = "lp.warm_grow_speedup") vs in
  Alcotest.(check bool) "speedup drop flagged" true v.regressed

let test_within_threshold_ok () =
  let curr = List.map (fun (k, v) -> (k, v *. 1.10)) base_metrics in
  let vs = D.diff_metrics ~threshold:0.25 base_metrics curr in
  Alcotest.(check bool) "10% drift passes a 25% gate" false (D.any_regression vs)

(* Ungated families never fail the gate, however bad. *)
let test_ungated_families_ignored () =
  let curr =
    List.map (fun (k, v) -> if k = "bigint.mixed_small(512).speedup" then (k, v /. 10.0) else (k, v)) base_metrics
  in
  let vs = D.diff_metrics ~threshold:0.25 base_metrics curr in
  Alcotest.(check bool) "bigint collapse is informational" false (D.any_regression vs)

(* The gate's first blind spot: a gated metric that vanishes from the
   current run used to be skipped silently — renaming or dropping a
   gated benchmark un-gated it.  Now it is a failure. *)
let test_vanished_gated_metric_fails () =
  let curr = List.remove_assoc "lp.warm_grow_pivots" base_metrics in
  let vs = D.diff_metrics ~threshold:0.25 base_metrics curr in
  Alcotest.(check bool) "vanished gated metric fails the gate" true (D.any_regression vs);
  let v = List.find (fun (v : D.verdict) -> v.key = "lp.warm_grow_pivots") vs in
  Alcotest.(check bool) "the vanished metric is the one flagged" true v.regressed;
  Alcotest.(check bool) "its current value is absent" true (v.curr = None)

(* ... but a vanished *non-gated* metric stays informational, and a
   metric new in the current run is never a regression (it has no
   baseline to regress from). *)
let test_asymmetric_ungated_and_new_ok () =
  let curr =
    ("lp.new_metric_ns", 1.0)
    :: List.remove_assoc "bigint.mixed_small(512).speedup" base_metrics
  in
  let vs = D.diff_metrics ~threshold:0.25 base_metrics curr in
  Alcotest.(check bool) "no spurious regressions" false (D.any_regression vs);
  let dropped = List.find (fun (v : D.verdict) -> v.key = "bigint.mixed_small(512).speedup") vs in
  Alcotest.(check bool) "ungated vanish reported, not failed" true
    (dropped.curr = None && not dropped.regressed);
  let fresh = List.find (fun (v : D.verdict) -> v.key = "lp.new_metric_ns") vs in
  Alcotest.(check bool) "new metric reported, not failed" true
    (fresh.base = None && not fresh.regressed)

(* The gate's second blind spot: a gated work counter at 0.0 in the
   baseline.  curr/base was computed as 0/0 -> reported 1.0, so any
   growth passed.  Growth from zero is now an infinite ratio. *)
let test_zero_baseline_growth_fails () =
  let base = ("lp.float32_log2_warm_fallbacks", 0.0) :: base_metrics in
  let curr = ("lp.float32_log2_warm_fallbacks", 37.0) :: base_metrics in
  let vs = D.diff_metrics ~threshold:0.25 base curr in
  let v = List.find (fun (v : D.verdict) -> v.key = "lp.float32_log2_warm_fallbacks") vs in
  Alcotest.(check bool) "0 -> 37 fallbacks trips the gate" true v.regressed;
  Alcotest.(check bool) "ratio is infinite" true (v.ratio = infinity)

let test_zero_stays_zero_ok () =
  let both = ("lp.float32_log2_warm_fallbacks", 0.0) :: base_metrics in
  let vs = D.diff_metrics ~threshold:0.25 both both in
  Alcotest.(check bool) "0 -> 0 passes" false (D.any_regression vs)

(* Symmetric blind spot on the Higher_better side: base/curr with a
   zero-or-negative current speedup used to divide to <= 0, under the
   1.25 bar, and pass. *)
let test_speedup_collapse_fails () =
  let curr =
    List.map (fun (k, v) -> if k = "lp.warm_grow_speedup" then (k, 0.0) else (k, v)) base_metrics
  in
  let vs = D.diff_metrics ~threshold:0.25 base_metrics curr in
  let v = List.find (fun (v : D.verdict) -> v.key = "lp.warm_grow_speedup") vs in
  Alcotest.(check bool) "speedup collapsing to 0 trips the gate" true v.regressed;
  Alcotest.(check bool) "ratio is infinite" true (v.ratio = infinity)

(* Malformed numbers name the metric they sit under. *)
let test_parse_error_names_the_key () =
  let doc =
    "{\n  \"metrics\": {\n    \"gen.float32_log2_s\": 2.2,\n    \"lp.warm_grow_speedup\": oops\n  }\n}\n"
  in
  match D.Legacy.parse_metrics doc with
  | _ -> Alcotest.fail "malformed number accepted"
  | exception D.Parse_error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error %S names the offending key" msg)
        true
        (contains "lp.warm_grow_speedup" msg)

let () =
  Alcotest.run "gate"
    [
      ( "gate",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_parse_roundtrip;
          Alcotest.test_case "parse rejects garbage" `Quick test_parse_rejects_garbage;
          Alcotest.test_case "direction + gating" `Quick test_direction;
          Alcotest.test_case "fast-path pct drop regresses" `Quick test_pct_drop_regresses;
          Alcotest.test_case "flags >25% gen regression" `Quick test_flags_gen_regression;
          Alcotest.test_case "flags lp speedup drop" `Quick test_flags_lp_speedup_drop;
          Alcotest.test_case "within threshold passes" `Quick test_within_threshold_ok;
          Alcotest.test_case "ungated families ignored" `Quick test_ungated_families_ignored;
          Alcotest.test_case "vanished gated metric fails" `Quick test_vanished_gated_metric_fails;
          Alcotest.test_case "ungated vanish / new metric informational" `Quick
            test_asymmetric_ungated_and_new_ok;
          Alcotest.test_case "zero-baseline growth fails" `Quick test_zero_baseline_growth_fails;
          Alcotest.test_case "zero stays zero passes" `Quick test_zero_stays_zero_ok;
          Alcotest.test_case "speedup collapse fails" `Quick test_speedup_collapse_fails;
          Alcotest.test_case "parse error names the key" `Quick test_parse_error_names_the_key;
        ] );
    ]
