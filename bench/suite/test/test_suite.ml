(* The suite's harness: seeded inputs, order statistics, compare
   verdicts, ablation arithmetic, span self time, and BENCHMARK.json.
   No table is generated here. *)

module H = Suite_harness

let close = Alcotest.float 1e-12

(* ------------------------------------------------------------------ *)
(* Inputs.                                                             *)
(* ------------------------------------------------------------------ *)

let batches seed =
  let f32 = (module Fp.Fp32 : Fp.Representation.S) and bf16 = (module Fp.Bfloat16 : Fp.Representation.S) in
  [
    H.Inputs.batch f32 ~seed ~label:"f32_log2/0" (H.Inputs.recipe ~tname:"float32" "log2");
    H.Inputs.batch f32 ~seed ~label:"f32_sin/3" (H.Inputs.recipe ~tname:"float32" "sin");
    H.Inputs.batch bf16 ~seed ~label:"bf16_exp2/1" (H.Inputs.recipe ~tname:"bfloat16" "exp2");
    H.Inputs.edge_batch_f32 ~seed ~label:"f32_log2/5";
    (let offset = H.Inputs.lattice_offset ~seed in
     Array.init H.Inputs.batch_size (H.Inputs.lattice_point ~offset));
  ]

let test_same_seed () =
  List.iter2
    (fun a b -> Alcotest.(check (array int)) "same seed, same batch" a b)
    (batches 1) (batches 1)

let test_other_seed () =
  List.iter2
    (fun a b -> Alcotest.(check bool) "another seed, another batch" false (a = b))
    (batches 1) (batches 2)

(* Recipes stay inside their format's ordinary domain: finite inputs,
   no infinities or NaNs after rounding. *)
let test_recipes_finite () =
  List.iter
    (fun (tname, (module T : Fp.Representation.S), fnames) ->
      List.iter
        (fun f ->
          let b = H.Inputs.batch (module T) ~seed:3 ~label:f (H.Inputs.recipe ~tname f) in
          Array.iter
            (fun p ->
              Alcotest.(check bool) (tname ^ " " ^ f ^ " finite") true (T.classify p = Fp.Representation.Finite))
            b)
        fnames)
    [
      ("float32", (module Fp.Fp32 : Fp.Representation.S),
       [ "ln"; "log2"; "log10"; "exp"; "exp2"; "exp10"; "sinh"; "cosh"; "sinpi"; "cospi"; "sin" ]);
      ("bfloat16", (module Fp.Bfloat16), [ "log2"; "exp2" ]);
      ("float16", (module Fp.Float16), [ "log2"; "exp2" ]);
    ]

(* The interleaved visiting order is a permutation of the lattice. *)
let test_lattice_permutation () =
  let seen = Hashtbl.create H.Inputs.lattice_size in
  for j = 0 to H.Inputs.lattice_size - 1 do
    Hashtbl.replace seen (H.Inputs.lattice_point ~offset:0 j) ()
  done;
  Alcotest.(check int) "distinct points" H.Inputs.lattice_size (Hashtbl.length seen);
  Alcotest.(check int) "consecutive points are a chunk's stride apart"
    (H.Inputs.lattice_size / H.Inputs.lattice_chunk * H.Inputs.lattice_stride)
    (H.Inputs.lattice_point ~offset:0 1)

(* ------------------------------------------------------------------ *)
(* Order statistics.                                                   *)
(* ------------------------------------------------------------------ *)

let test_percentile () =
  let s = Array.init 10 (fun i -> float_of_int (i + 1)) in
  List.iter
    (fun (q, want) -> Alcotest.check close (Printf.sprintf "p%g" (q *. 100.0)) want (H.Summary.percentile s q))
    [ (0.01, 1.0); (0.1, 1.0); (0.11, 2.0); (0.5, 5.0); (0.9, 9.0); (0.91, 10.0); (1.0, 10.0) ];
  Alcotest.check close "single sample" 7.0 (H.Summary.percentile [| 7.0 |] 0.99)

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  List.iter
    (fun (xs, (q1, q3)) ->
      let a, b = H.Summary.quartiles xs in
      Alcotest.check close "q1" q1 a;
      Alcotest.check close "q3" q3 b)
    [
      (Array.init 10 (fun i -> float_of_int (i + 1)), (2.75, 8.25));
      ([| 1.0; 2.0; 3.0 |], (1.0, 3.0));
      ([| 5.0; 1.0 |], (0.0, 6.0));
      ([| 3.5; 1.25; 9.0; 4.0; 2.0 |], (1.625, 6.5));
    ];
  Alcotest.check close "median, even count" 3.0 (H.Summary.median [| 4.0; 1.0; 2.0; 9.0 |]);
  Alcotest.check close "spread" ((8.25 -. 2.75) /. 5.5)
    (H.Summary.rel_spread (Array.init 10 (fun i -> float_of_int (i + 1))))

let test_fastest_decile () =
  let thr = [| 5.0; 9.0; 1.0; 7.0; 3.0; 8.0; 2.0; 6.0; 4.0; 10.0; 0.5; 0.25 |] in
  Alcotest.(check (array int)) "top tenth" [| 9 |] (H.Summary.fastest_decile thr);
  Alcotest.(check (array int)) "at least one" [| 1 |] (H.Summary.fastest_decile [| 1.0; 2.0 |]);
  let many = Array.init 40 float_of_int in
  Alcotest.(check (array int)) "four of forty" [| 39; 38; 37; 36 |] (H.Summary.fastest_decile many)

(* ------------------------------------------------------------------ *)
(* Ablation arithmetic.                                                *)
(* ------------------------------------------------------------------ *)

let test_layer_costs () =
  Alcotest.(check (array close)) "cumulative loops" [| 1.0; 2.0; 3.0; 0.5 |]
    (H.Summary.layer_costs ~calls:1024 [| 1024.0; 3072.0; 6144.0; 6656.0 |]);
  Alcotest.(check (array close)) "noise goes negative" [| 10.0; -1.0 |]
    (H.Summary.layer_costs ~calls:1 [| 10.0; 9.0 |])

(* ------------------------------------------------------------------ *)
(* Spans.                                                              *)
(* ------------------------------------------------------------------ *)

let test_self_time () =
  let t = H.Spans.create () in
  let add ~parent s e = H.Spans.add t ~parent ~trace:"w/0" ~name:"x" ~start_ns:s ~end_ns:e ~count:1 in
  let root = add ~parent:(-1) 0 100 in
  let a = add ~parent:root 10 30 in
  let _b = add ~parent:root 20 50 (* overlaps a *) in
  let _c = add ~parent:root 60 70 in
  let _d = add ~parent:root 95 120 (* sticks out of the parent *) in
  let g = add ~parent:a 12 28 (* grandchild: a's time, not root's *) in
  let self = H.Spans.self_times t in
  Alcotest.(check int) "root: 100 - [10,50) - [60,70) - [95,100)" 45 self.(root);
  Alcotest.(check int) "child: 20 - grandchild 16" 4 self.(a);
  Alcotest.(check int) "leaf" 16 self.(g);
  let opened = H.Spans.add t ~parent:(-1) ~trace:"w/1" ~name:"y" ~start_ns:200 ~end_ns:200 ~count:0 in
  H.Spans.close t opened ~end_ns:260 ~count:3;
  let s = H.Spans.get t opened in
  Alcotest.(check (pair int int)) "closed span" (260, 3) (s.end_ns, s.count)

let test_span_jsonl () =
  let t = H.Spans.create () in
  let root = H.Spans.add t ~parent:(-1) ~trace:"w/0" ~name:"a" ~start_ns:1 ~end_ns:5 ~count:2 in
  ignore (H.Spans.add t ~parent:root ~trace:"w/0" ~name:"b:\"q\"" ~start_ns:2 ~end_ns:3 ~count:1);
  List.iter
    (fun (id, want) ->
      match H.Json.parse (H.Spans.json_line (H.Spans.get t id)) with
      | Error msg -> Alcotest.fail msg
      | Ok j -> Alcotest.(check string) "span line round-trips" want (H.Json.to_string j))
    [
      (0, {|{"trace": "w/0", "span": 0, "parent": null, "name": "a", "start_ns": 1, "end_ns": 5, "count": 2}|});
      (1, {|{"trace": "w/0", "span": 1, "parent": 0, "name": "b:\"q\"", "start_ns": 2, "end_ns": 3, "count": 1}|});
    ]

(* ------------------------------------------------------------------ *)
(* Compare verdicts.                                                   *)
(* ------------------------------------------------------------------ *)

let side ?(within = 0.0) values = { H.Contract.values = Array.of_list values; within }

let verdict =
  Alcotest.testable
    (fun fmt v -> Format.pp_print_string fmt (H.Contract.verdict_to_string v))
    ( = )

let test_verdicts () =
  let v better bound base curr = fst (H.Contract.judge better ~bound ~base ~curr) in
  let open H.Contract in
  Alcotest.check verdict "within bound" Agree
    (v Lower 0.10 (side [ 100.0; 101.0; 99.0 ]) (side [ 105.0; 106.0; 104.0 ]));
  Alcotest.check verdict "worse than bound" Worse
    (v Lower 0.10 (side [ 100.0; 101.0; 99.0 ]) (side [ 115.0; 116.0; 114.0 ]));
  Alcotest.check verdict "higher-better polarity" Worse
    (v Higher 0.10 (side [ 100.0; 101.0; 99.0 ]) (side [ 85.0; 86.0; 84.0 ]));
  Alcotest.check verdict "spread above bound" Unresolved
    (v Lower 0.10 (side [ 60.0; 100.0; 140.0 ]) (side [ 100.0; 101.0; 99.0 ]));
  Alcotest.check verdict "one run each: within-run spread decides" Unresolved
    (v Lower 0.10 (side ~within:0.2 [ 100.0 ]) (side ~within:0.01 [ 101.0 ]));
  Alcotest.check verdict "every new run better than every base run" Agree
    (v Lower 0.10 (side [ 60.0; 100.0; 140.0 ]) (side [ 50.0; 55.0; 58.0 ]));
  Alcotest.check verdict "must not rise: equal" Agree (v Lower 0.0 (side [ 0.0 ]) (side [ 0.0 ]));
  Alcotest.check verdict "must not rise: rose from zero" Worse (v Lower 0.0 (side [ 0.0 ]) (side [ 1e-6 ]));
  let _, ch = H.Contract.judge Lower ~bound:0.1 ~base:(side [ 100.0 ]) ~curr:(side [ 90.0 ]) in
  Alcotest.check close "change is negative when better" (-0.1) ch

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json.                                                     *)
(* ------------------------------------------------------------------ *)

let name_ok s =
  String.length s >= 1
  && String.length s <= 64
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' -> true | _ -> false)
  && String.for_all (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false) s

let test_benchmark_json () =
  match H.Contract.load "../../../BENCHMARK.json" with
  | Error msg -> Alcotest.fail msg
  | Ok c ->
      Alcotest.(check (list string)) "workloads"
        [ "f32-uniform"; "f16-bf16-modes"; "f32-fallback"; "f32-generate-certify" ] c.workloads;
      let names = c.workloads @ List.map (fun (m : H.Contract.metric) -> m.name) (c.end_to_end @ c.per_layer) in
      List.iter (fun n -> Alcotest.(check bool) ("name " ^ n) true (name_ok n)) names;
      Alcotest.(check int) "names used once" (List.length names) (List.length (List.sort_uniq compare names));
      List.iter
        (fun (m : H.Contract.metric) ->
          match m.bound with
          | Some b -> Alcotest.(check bool) (m.name ^ " bound <= 0.25") true (b > 0.0 && b <= 0.25)
          | None -> Alcotest.fail (m.name ^ ": no bound"))
        c.end_to_end;
      let setup = List.find (fun (m : H.Contract.metric) -> m.name = "setup_s") c.end_to_end in
      Alcotest.(check bool) "setup_s has the largest bound" true
        (List.for_all (fun (m : H.Contract.metric) -> m.bound <= setup.bound) c.end_to_end);
      Alcotest.(check bool) "per-layer count" true (List.length c.per_layer <= 128)

let () =
  Alcotest.run "suite"
    [
      ( "inputs",
        [
          Alcotest.test_case "same seed, byte-identical batches" `Quick test_same_seed;
          Alcotest.test_case "different seed, different batches" `Quick test_other_seed;
          Alcotest.test_case "recipes stay finite" `Quick test_recipes_finite;
          Alcotest.test_case "lattice order is a permutation" `Quick test_lattice_permutation;
        ] );
      ( "summary",
        [
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentile;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "fastest decile" `Quick test_fastest_decile;
          Alcotest.test_case "ablation deltas" `Quick test_layer_costs;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "jsonl lines" `Quick test_span_jsonl;
        ] );
      ("compare", [ Alcotest.test_case "verdicts" `Quick test_verdicts ]);
      ("contract", [ Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json ]);
    ]
