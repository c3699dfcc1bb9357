(* The determinism contract of lib/parallel: identical results — bit for
   bit — at every job count, for the engine primitives and for the full
   generation pipeline built on them. *)

module P = Parallel
open Test_util

let job_counts = [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Engine primitives.                                                  *)
(* ------------------------------------------------------------------ *)

let test_shards_partition () =
  List.iter
    (fun n ->
      let sh = P.shards n in
      let covered = ref 0 in
      Array.iteri
        (fun i (lo, hi) ->
          Alcotest.(check bool) "ordered" true (lo <= hi);
          if i = 0 then Alcotest.(check int) "starts at 0" 0 lo
          else Alcotest.(check int) "contiguous" (snd sh.(i - 1)) lo;
          covered := !covered + (hi - lo))
        sh;
      Alcotest.(check int) (Printf.sprintf "covers [0,%d)" n) n !covered;
      (* A function of n alone: byte-identical on a second call. *)
      Alcotest.(check bool) "stable" true (sh = P.shards n))
    [ 0; 1; 2; 63; 64; 65; 1000; 65536 ]

let test_map_chunks_deterministic () =
  let n = 10_000 in
  let f ~lo ~hi =
    let s = ref 0 in
    for i = lo to hi - 1 do
      s := !s + (i * i)
    done;
    !s
  in
  let want = P.map_chunks ~jobs:1 ~n f in
  List.iter
    (fun j ->
      let got = P.map_chunks ~jobs:j ~n f in
      Alcotest.(check bool) (Printf.sprintf "jobs=%d" j) true (got = want))
    job_counts

(* String concatenation is not commutative: only the fixed left-to-right
   shard-order merge makes this identical at every job count. *)
let test_fold_noncommutative () =
  let n = 5000 in
  let chunk ~lo ~hi = Printf.sprintf "[%d,%d)" lo hi in
  let run j = P.fold_chunks ~jobs:j ~n ~combine:( ^ ) ~init:"" chunk in
  let want = run 1 in
  List.iter
    (fun j -> Alcotest.(check string) (Printf.sprintf "jobs=%d" j) want (run j))
    job_counts

let test_find_violation () =
  let n = 100_000 in
  List.iter
    (fun j ->
      (* Violations in many shards: the lowest must win. *)
      Alcotest.(check (option int))
        (Printf.sprintf "lowest wins, jobs=%d" j)
        (Some 17)
        (P.find_violation ~jobs:j ~n (fun i -> i mod 1000 = 17));
      (* Single violation in the last shard. *)
      Alcotest.(check (option int))
        (Printf.sprintf "last shard, jobs=%d" j)
        (Some (n - 1))
        (P.find_violation ~jobs:j ~n (fun i -> i = n - 1));
      (* No violation. *)
      Alcotest.(check (option int))
        (Printf.sprintf "none, jobs=%d" j)
        None
        (P.find_violation ~jobs:j ~n (fun _ -> false)))
    job_counts

let test_once_runs_once () =
  let runs = Atomic.make 0 in
  let o =
    P.Once.make (fun () ->
        Atomic.incr runs;
        (* Widen the race window. *)
        let s = ref 0 in
        for i = 1 to 100_000 do
          s := !s + i
        done;
        !s)
  in
  let doms = Array.init 4 (fun _ -> Domain.spawn (fun () -> P.Once.get o)) in
  let vals = Array.map Domain.join doms in
  Array.iter (fun v -> Alcotest.(check int) "same value" vals.(0) v) vals;
  Alcotest.(check int) "initializer ran once" 1 (Atomic.get runs)

let test_exception_deterministic () =
  (* Whatever domain hits its failure first, the lowest failing shard's
     exception is the one reported. *)
  let n = 100_000 in
  List.iter
    (fun j ->
      match
        P.map_chunks ~jobs:j ~n (fun ~lo ~hi:_ ->
            if lo >= 50_000 then failwith (Printf.sprintf "high %d" lo)
            else if lo >= 20_000 then failwith (Printf.sprintf "low %d" lo))
      with
      | _ -> Alcotest.fail "expected an exception"
      | exception Failure msg ->
          let first_failing =
            Array.to_list (P.shards n)
            |> List.find (fun (lo, _) -> lo >= 20_000)
            |> fst
          in
          Alcotest.(check string)
            (Printf.sprintf "lowest shard's exception, jobs=%d" j)
            (Printf.sprintf "low %d" first_failing)
            msg)
    job_counts

(* ------------------------------------------------------------------ *)
(* Generation pipeline: bit-identical functions at every job count.    *)
(* ------------------------------------------------------------------ *)

(* A strided bfloat16 subset keeps this test a few seconds per job
   count while exercising the sharded oracle pass, Algorithm 4's
   sharded Check and the sharded validation replay. *)
let subset = Array.init (65536 / 4) (fun i -> i * 4)

let generate_with_jobs j =
  P.set_jobs j;
  let spec = Funcs.Specs.log2 Funcs.Specs.bfloat16 in
  match Rlibm.Generator.generate spec ~patterns:subset with
  | Error msg -> Alcotest.failf "generation failed at jobs=%d: %s" j msg
  | Ok g -> g

let coeff_bits (g : Rlibm.Generator.generated) =
  (* Every coefficient of every piecewise group, as exact bits. *)
  Array.to_list g.pieces
  |> List.concat_map (fun (pw : Rlibm.Piecewise.t) ->
         List.concat_map
           (function
             | None -> []
             | Some (grp : Rlibm.Piecewise.group) ->
                 Array.to_list (Array.map Int64.bits_of_float grp.coeffs))
           [ pw.neg; pw.pos ])

let misround_count (g : Rlibm.Generator.generated) j =
  let module T = Fp.Bfloat16 in
  let spec = g.Rlibm.Generator.spec in
  P.fold_chunks ~jobs:j ~n:(Array.length subset) ~combine:( + ) ~init:0
    (fun ~lo ~hi ->
      let bad = ref 0 in
      for k = lo to hi - 1 do
        let pat = subset.(k) in
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

let test_generation_bit_identical () =
  let gs = List.map generate_with_jobs job_counts in
  P.set_jobs 1;
  let g1 = List.hd gs in
  let want_bits = coeff_bits g1 in
  List.iter2
    (fun j g ->
      Alcotest.(check bool)
        (Printf.sprintf "coefficients bit-identical at jobs=%d" j)
        true
        (coeff_bits g = want_bits))
    job_counts gs;
  (* Misrounding counts agree at every job count, and on the validated
     enumeration they are zero. *)
  let counts = List.map (misround_count g1) job_counts in
  List.iter2
    (fun j c -> Alcotest.(check int) (Printf.sprintf "misround count at jobs=%d" j) 0 c)
    job_counts counts

(* RLIBM_JOBS through a fake environment: blank is unset, a positive
   integer is taken, anything else is refused by name — never a silent
   fallback to the runtime's recommendation.  No domain is spawned. *)
let test_jobs_of_env () =
  let jobs v = Parallel.jobs_of_env (fun var -> if var = "RLIBM_JOBS" then v else None) in
  Alcotest.(check (option int)) "unset" None (jobs None);
  Alcotest.(check (option int)) "blank" None (jobs (Some "  "));
  Alcotest.(check (option int)) "3" (Some 3) (jobs (Some "3"));
  Alcotest.(check (option int)) "padded 2" (Some 2) (jobs (Some " 2\n"));
  List.iter
    (fun bad ->
      match jobs (Some bad) with
      | exception Invalid_argument msg ->
          Alcotest.(check string) (Printf.sprintf "%S refused" bad)
            (Printf.sprintf "RLIBM_JOBS=%S: expected an integer >= 1" bad) msg
      | r ->
          Alcotest.failf "RLIBM_JOBS=%S accepted as %s" bad
            (match r with Some j -> string_of_int j | None -> "unset"))
    [ "0"; "-4"; "four"; "2.5"; "4x" ]

let () =
  Alcotest.run "parallel"
    [
      ( "engine",
        [
          Alcotest.test_case "shards partition [0,n)" `Quick test_shards_partition;
          Alcotest.test_case "map_chunks deterministic" `Quick test_map_chunks_deterministic;
          Alcotest.test_case "fold non-commutative combine" `Quick test_fold_noncommutative;
          Alcotest.test_case "find_violation lowest-first" `Quick test_find_violation;
          Alcotest.test_case "Once runs once across domains" `Quick test_once_runs_once;
          Alcotest.test_case "deterministic exception" `Quick test_exception_deterministic;
          Alcotest.test_case "RLIBM_JOBS refuses bad values" `Quick test_jobs_of_env;
        ] );
      ( "generation",
        [
          Alcotest.test_case "bfloat16 log2 bit-identical at jobs 1/2/4" `Slow
            test_generation_bit_identical;
        ] );
    ]
