(* Benchmark harness: Figures 3, 4 and 5 of the paper.

   Methodology follows §4.1: each measured unit is the evaluation of a
   full 1024-element input array (the paper's vectorization-aware
   harness), timed with Bechamel's monotonic clock and reduced by OLS on
   the run count.  Every library pays the same pattern<->double
   conversion costs its real-world use would pay.

   Functions are generated at Draft quality here: generation quality
   changes how many inputs constrain the tables, not the runtime code
   path being measured.  Use bin/check.exe for correctness and
   bin/generate.exe for Table 3 statistics.

   This program only prints.  The repo's benchmark, and the only one CI
   compares across revisions, is bench/suite (see BENCHMARK.json). *)

open Bechamel
module Toolkit = Bechamel.Toolkit

let quality = Funcs.Libm.Draft
let batch = 1024

(* Deterministic input arrays per function family: the paper populates
   its 1024-element arrays with "different inputs"; we draw them
   deterministically from each function's non-special domain. *)
let inputs_for name =
  let mix i =
    (* splitmix-ish *)
    let z = (i + 1) * 0x9E3779B9 land 0xFFFFFF in
    float_of_int z /. float_of_int 0xFFFFFF
  in
  Array.init batch (fun i ->
      let u = mix i in
      let v = mix (i + 7919) in
      let sym x = if v < 0.5 then -.x else x in
      match name with
      | "ln" | "log2" | "log10" -> Float.ldexp (1.0 +. u) (int_of_float ((v *. 60.0) -. 30.0))
      | "exp" | "sinh" | "cosh" -> sym (u *. 80.0)
      | "exp2" -> sym (u *. 120.0)
      | "exp10" -> sym (u *. 35.0)
      | "sinpi" | "cospi" -> sym (Float.ldexp (1.0 +. u) (int_of_float (v *. 20.0) - 10))
      | _ -> u)

(* Round inputs into the target so conversions are exact at run time. *)
let patterns_of (module T : Fp.Representation.S) xs = Array.map T.of_double xs

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing.                                                  *)
(* ------------------------------------------------------------------ *)

let measure_ns staged =
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.4) ~kde:None () in
  let test = Test.make ~name:"t" staged in
  let results = Benchmark.all cfg [ instance ] test in
  let b = Hashtbl.fold (fun _ v _ -> Some v) results None |> Option.get in
  let ols =
    Analyze.OLS.ols ~bootstrap:0 ~r_square:false ~responder:(Measure.label instance)
      ~predictors:[| Measure.run |] b.Benchmark.lr
  in
  match Analyze.OLS.estimates ols with
  | Some (t :: _) -> t
  | _ -> Float.nan

(* Evaluate a pattern->pattern function over the whole batch. *)
let batch_fn f (pats : int array) =
  Staged.stage (fun () ->
      let acc = ref 0 in
      for i = 0 to batch - 1 do
        acc := !acc lxor f pats.(i)
      done;
      !acc)

(* Double->double functions (rounded through T at the end, as a float
   libm caller would see). *)
let batch_dfn (module T : Fp.Representation.S) f (xs : float array) =
  Staged.stage (fun () ->
      let acc = ref 0.0 in
      for i = 0 to batch - 1 do
        acc := !acc +. T.to_double (T.of_double (f xs.(i)))
      done;
      !acc)

let pr_header title = Printf.printf "\n== %s ==\n%!" title

let speedup base v = base /. v

(* ------------------------------------------------------------------ *)
(* Figure 3: float32 functions vs comparators.                         *)
(* ------------------------------------------------------------------ *)

let fig3 () =
  pr_header "FIG3: float32 per-call cost (ns per 1024-input batch) and RLIBM-32 speedups";
  Printf.printf "%-7s %10s %10s %10s %10s %10s | %7s %7s %7s %7s\n" "func" "rlibm" "nativeF32"
    "nativeF64" "glibc-dbl" "crlibm-dd" "vs-f32" "vs-f64" "vs-glibc" "vs-crl";
  let t = Funcs.Specs.float32 in
  let module T = Fp.Fp32 in
  let geo = Array.make 4 0.0 in
  let n = ref 0 in
  (* The float comparators implement the paper's ten functions; the
     radian trig family has none, so it has no Figure 3 row. *)
  let has_comparators name =
    match Baselines.Native.eval_pattern Baselines.Native.F32 t name with
    | (_ : int -> int) -> true
    | exception Invalid_argument _ -> false
  in
  List.iter
    (fun name ->
      match Funcs.Libm.get ~quality t name with
      | exception Failure msg -> Printf.printf "%-7s SKIPPED (%s)\n%!" name msg
      | g ->
          let xs = inputs_for name in
          let xs = Array.map (fun x -> T.to_double (T.of_double x)) xs in
          let pats = patterns_of (module T) xs in
          let rlibm = measure_ns (batch_fn (Rlibm.Generator.compile g) pats) in
          let n32 =
            measure_ns (batch_fn (Baselines.Native.eval_pattern Baselines.Native.F32 t name) pats)
          in
          let n64 =
            measure_ns (batch_fn (Baselines.Native.eval_pattern Baselines.Native.F64 t name) pats)
          in
          let glibc =
            measure_ns (batch_dfn (module T) (Baselines.Double_libm.fn name) xs)
          in
          let crl =
            measure_ns (batch_dfn (module T) (Baselines.Crlibm_analog.timed_eval name) xs)
          in
          let sp = [| speedup n32 rlibm; speedup n64 rlibm; speedup glibc rlibm; speedup crl rlibm |] in
          Array.iteri (fun i s -> geo.(i) <- geo.(i) +. Float.log s) sp;
          incr n;
          Printf.printf "%-7s %10.0f %10.0f %10.0f %10.0f %10.0f | %7.2f %7.2f %7.2f %7.2f\n%!"
            name rlibm n32 n64 glibc crl sp.(0) sp.(1) sp.(2) sp.(3))
    (List.filter has_comparators Funcs.Specs.float_functions);
  if !n > 0 then
    Printf.printf "%-7s %54s | %7.2f %7.2f %7.2f %7.2f\n%!" "geomean" ""
      (Float.exp (geo.(0) /. float_of_int !n))
      (Float.exp (geo.(1) /. float_of_int !n))
      (Float.exp (geo.(2) /. float_of_int !n))
      (Float.exp (geo.(3) /. float_of_int !n))

(* ------------------------------------------------------------------ *)
(* Figure 4: posit32 functions vs repurposed double libraries.         *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  pr_header "FIG4: posit32 per-call cost (ns per 1024-input batch) and RLIBM-32 speedups";
  Printf.printf "%-7s %10s %10s %10s %10s | %7s %7s %7s\n" "func" "rlibm" "glibc-dbl" "nativeF64"
    "crlibm-dd" "vs-glibc" "vs-f64" "vs-crl";
  let t = Funcs.Specs.posit32 in
  let module P = Posit.Posit32 in
  let geo = Array.make 3 0.0 in
  let n = ref 0 in
  List.iter
    (fun name ->
      match Funcs.Libm.get ~quality t name with
      | exception Failure msg -> Printf.printf "%-7s SKIPPED (%s)\n%!" name msg
      | g ->
          let xs = inputs_for name in
          let pats = Array.map P.of_double xs in
          let rlibm = measure_ns (batch_fn (Rlibm.Generator.compile g) pats) in
          let glibc =
            measure_ns (batch_fn (Baselines.Double_libm.eval (module P) name) pats)
          in
          let n64 =
            measure_ns (batch_fn (Baselines.Native.eval_pattern Baselines.Native.F64 t name) pats)
          in
          let crlf = Baselines.Crlibm_analog.timed_eval name in
          let crl =
            measure_ns (batch_fn (fun p -> P.of_double (crlf (P.to_double p))) pats)
          in
          let sp = [| speedup glibc rlibm; speedup n64 rlibm; speedup crl rlibm |] in
          Array.iteri (fun i s -> geo.(i) <- geo.(i) +. Float.log s) sp;
          incr n;
          Printf.printf "%-7s %10.0f %10.0f %10.0f %10.0f | %7.2f %7.2f %7.2f\n%!" name rlibm
            glibc n64 crl sp.(0) sp.(1) sp.(2))
    Funcs.Specs.posit_functions;
  if !n > 0 then
    Printf.printf "%-7s %43s | %7.2f %7.2f %7.2f\n%!" "geomean" ""
      (Float.exp (geo.(0) /. float_of_int !n))
      (Float.exp (geo.(1) /. float_of_int !n))
      (Float.exp (geo.(2) /. float_of_int !n))

(* ------------------------------------------------------------------ *)
(* Figure 5: speedup vs number of piecewise sub-domains.               *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  pr_header "FIG5: log2/log10 speedup vs forced sub-domain count (baseline = single polynomial)";
  Printf.printf "%-7s %6s %12s %10s %8s %s\n" "func" "n" "subdomains" "ns/batch" "speedup" "degree";
  let t = Funcs.Specs.float32 in
  let module T = Fp.Fp32 in
  List.iter
    (fun name ->
      let xs = inputs_for name in
      let pats = patterns_of (module T) (Array.map (fun x -> T.to_double (T.of_double x)) xs) in
      let base = ref None in
      List.iter
        (fun n ->
          let cfg = { Rlibm.Config.default with start_split_bits = n; max_split_bits = n } in
          (* Neutralize the designer hint: this sweep wants exactly 2^n. *)
          let spec = { (Funcs.Specs.by_name name t) with Rlibm.Spec.split_hint = 0 } in
          match
            Rlibm.Generator.generate ~cfg spec ~patterns:(Funcs.Libm.enumeration t quality)
          with
          | Error msg -> Printf.printf "%-7s %6d FAILED: %s\n%!" name n msg
          | Ok g ->
              let ns = measure_ns (batch_fn (Rlibm.Generator.compile g) pats) in
              let b = match !base with None -> base := Some ns; ns | Some b -> b in
              let stats = g.stats.per_component.(0) in
              Printf.printf "%-7s %6d %12d %10.0f %8.2f %d\n%!" name n stats.n_polynomials ns
                (b /. ns) stats.degree)
        [ 0; 2; 4; 6; 8; 10; 12 ])
    [ "log2"; "log10" ]

(* ------------------------------------------------------------------ *)
(* Ablations (design choices DESIGN.md calls out).                     *)
(* ------------------------------------------------------------------ *)

(* Ablation A: counterexample-guided sampling (Algorithm 4) vs handing
   the LP every constraint at once — the paper's claim that sampling is
   what makes 32-bit scale feasible (their LP cap is a few thousand
   constraints; ours is smaller but the asymmetry is the same). *)
let ablation_sampling () =
  pr_header "ABLATION A: counterexample-guided sampling vs full-constraint LP (bfloat16 exp2)";
  let spec = Funcs.Specs.exp2 Funcs.Specs.bfloat16 in
  let module T = Fp.Bfloat16 in
  (* Collect the reduced constraints once. *)
  let cons = Hashtbl.create 1024 in
  Array.iter
    (fun pat ->
      match spec.special pat with
      | Some _ -> ()
      | None -> (
          let y =
            Oracle.Elementary.correctly_rounded ~round:T.round_rational spec.oracle
              (T.to_rational pat)
          in
          let iv = Rlibm.Rounding.interval spec.repr y in
          match Rlibm.Reduced.deduce spec ~pattern:pat ~interval:iv with
          | Error _ -> ()
          | Ok (_, cs) -> (
              let c = cs.(0) in
              let key = Fp.Fp64.bits c.r in
              match Hashtbl.find_opt cons key with
              | None -> Hashtbl.replace cons key c
              | Some (p : Rlibm.Reduced.constr) ->
                  Hashtbl.replace cons key
                    { c with lo = Float.max p.lo c.lo; hi = Float.min p.hi c.hi })))
    Rlibm.Enumerate.exhaustive16;
  let arr = Hashtbl.fold (fun _ c acc -> c :: acc) cons [] |> Array.of_list in
  Array.sort (fun (a : Rlibm.Reduced.constr) b -> compare a.r b.r) arr;
  let pos = Array.of_seq (Seq.filter (fun (c : Rlibm.Reduced.constr) -> c.r >= 0.0) (Array.to_seq arr)) in
  Printf.printf "constraints (positive group): %d\n%!" (Array.length pos);
  let time f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let sampled, t_sampled =
    time (fun () -> Rlibm.Polygen.gen ~cfg:Rlibm.Config.default ~terms:[| 0; 1; 2; 3 |] pos)
  in
  let all_lp, t_all =
    time (fun () ->
        Lp.Polyfit.fit ~terms:[| 0; 1; 2; 3 |]
          (Array.map
             (fun (c : Rlibm.Reduced.constr) ->
               { Lp.Polyfit.r = c.r; lo = c.lo; hi = c.hi; lo_open = c.lo_open; hi_open = c.hi_open })
             pos))
  in
  Printf.printf "counterexample-guided: %.2fs (%s)\n" t_sampled
    (match sampled with Rlibm.Polygen.Found _ -> "found" | _ -> "no polynomial");
  Printf.printf "all-constraints LP:    %.2fs (%s)\n%!" t_all
    (match all_lp with Some _ -> "found" | None -> "no polynomial")

(* Ablation B: the paper lets the designer pick odd/even structure; a
   dense polynomial of the same reach costs more per call. *)
let ablation_structure () =
  pr_header "ABLATION B: odd-structure vs dense polynomial, sinpi runtime";
  let t = Funcs.Specs.float32 in
  let module T = Fp.Fp32 in
  match Funcs.Libm.get ~quality t "sinpi" with
  | exception Failure msg -> Printf.printf "skipped (%s)\n" msg
  | g ->
      let xs = Array.map (fun x -> T.to_double (T.of_double x)) (inputs_for "sinpi") in
      let pats = patterns_of (module T) xs in
      let odd = measure_ns (batch_fn (Rlibm.Generator.compile g) pats) in
      (* Dense variant: pad the generated odd/even tables to dense terms
         [0..5], zero coefficients where absent; same values, denser
         Horner. *)
      let dense_piece (pw : Rlibm.Piecewise.t) =
        let dense_terms = Array.init 6 (fun i -> i) in
        let widen (grp : Rlibm.Piecewise.group option) =
          Option.map
            (fun (grp : Rlibm.Piecewise.group) ->
              let nsub = Rlibm.Splitting.n_subdomains grp.Rlibm.Piecewise.scheme in
              let nt = Array.length pw.terms in
              let coeffs = Array.make (nsub * 6) 0.0 in
              for s = 0 to nsub - 1 do
                Array.iteri
                  (fun k e -> coeffs.((s * 6) + e) <- grp.coeffs.((s * nt) + k))
                  pw.terms
              done;
              { grp with coeffs })
            grp
        in
        { Rlibm.Piecewise.terms = dense_terms; neg = widen pw.neg; pos = widen pw.pos }
      in
      let dense_pieces = Array.map dense_piece g.pieces in
      let dense_fn pat =
        match g.spec.special pat with
        | Some out -> out
        | None ->
            let rr = g.spec.reduce (T.to_double pat) in
            let v = Array.map (fun pw -> Rlibm.Piecewise.eval pw rr.r) dense_pieces in
            T.of_double (g.spec.compensate rr v)
      in
      let dense = measure_ns (batch_fn dense_fn pats) in
      Printf.printf "odd/even structure: %.0f ns/batch; dense degree-5: %.0f ns/batch (%.2fx)\n%!"
        odd dense (dense /. odd)

(* Scalar calls vs the batch entry point: the paper's vectorization
   observation (§4.3) at OCaml scale. *)
let vec () =
  pr_header "VEC: scalar pattern calls vs Funcs.Batch (1024-input batches)";
  let t = Funcs.Specs.float32 in
  let module T = Fp.Fp32 in
  List.iter
    (fun name ->
      match Funcs.Libm.get ~quality t name with
      | exception Failure msg -> Printf.printf "%-7s SKIPPED (%s)\n%!" name msg
      | g ->
          let xs = Array.map (fun x -> T.to_double (T.of_double x)) (inputs_for name) in
          let pats = patterns_of (module T) xs in
          let dst = Array.make batch 0 in
          let scalar = measure_ns (batch_fn (Rlibm.Generator.compile g) pats) in
          let batched =
            measure_ns
              (Staged.stage (fun () ->
                   Funcs.Batch.eval_patterns g pats dst;
                   dst.(0)))
          in
          Printf.printf "%-7s scalar %8.0f ns  batch %8.0f ns  (%.2fx)\n%!" name scalar batched
            (scalar /. batched))
    [ "log2"; "exp2"; "sinpi" ]

(* Validation throughput vs domain count: the sharded Check/validation
   pass (Algorithm 4's bottleneck at full 32-bit scale) timed at fixed
   job counts.  On a single-CPU host the jobs>1 rows measure scheduling
   overhead, not speedup; on a multicore host they show the scaling the
   ISSUE targets. *)
let par () =
  pr_header "PAR: validation throughput vs worker domains (bfloat16 log2, oracle truth + compare)";
  let t = Funcs.Specs.bfloat16 in
  let module T = Fp.Bfloat16 in
  match Funcs.Libm.get ~quality t "log2" with
  | exception Failure msg -> Printf.printf "skipped (%s)\n" msg
  | g ->
      (* Every 8th bfloat16 pattern: large enough to shard, small enough
         to finish promptly at jobs=1. *)
      let pats =
        Array.of_seq
          (Seq.filter (fun p -> p land 7 = 0) (Array.to_seq Rlibm.Enumerate.exhaustive16))
      in
      let n = Array.length pats in
      let spec = g.Rlibm.Generator.spec in
      let validate jobs =
        Parallel.fold_chunks ~jobs ~n ~combine:( + ) ~init:0
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
              if
                not
                  (Rlibm.Generator.patterns_value_equal spec.repr
                     (Rlibm.Generator.eval_pattern g pat) want)
              then incr bad
            done;
            !bad)
      in
      Printf.printf "%6s %10s %12s %10s %8s\n" "jobs" "wall_s" "items/s" "busy_s" "bad";
      let base = ref None in
      List.iter
        (fun jobs ->
          let t0 = Unix.gettimeofday () in
          let bad = validate jobs in
          let wall = Unix.gettimeofday () -. t0 in
          let busy =
            match Parallel.last_stats () with
            | Some s -> Array.fold_left ( +. ) 0.0 s.Parallel.shard_seconds
            | None -> wall
          in
          let b = match !base with None -> base := Some wall; wall | Some b -> b in
          Printf.printf "%6d %10.2f %12.0f %10.2f %8d  (%.2fx vs jobs=1)\n%!" jobs wall
            (float_of_int n /. wall) busy bad (b /. wall))
        [ 1; 2; 4; 8 ];
      (* Batch engine on a large synthetic batch: the sharded
         Funcs.Batch path vs its own jobs=1 run. *)
      let big = 1 lsl 16 in
      let src = Array.init big (fun i -> pats.(i mod n)) in
      let dst = Array.make big 0 in
      Printf.printf "batch engine (%d patterns):\n" big;
      List.iter
        (fun jobs ->
          Parallel.set_jobs jobs;
          let t0 = Unix.gettimeofday () in
          for _ = 1 to 8 do
            Funcs.Batch.eval_patterns g src dst
          done;
          let wall = Unix.gettimeofday () -. t0 in
          Printf.printf "  jobs %2d: %8.3f s (%10.0f items/s)\n%!" jobs wall
            (float_of_int (8 * big) /. wall))
        [ 1; 2; 4; 8 ];
      Parallel.set_jobs 1

let () =
  Printf.printf "RLIBM-32 reproduction benchmarks (see EXPERIMENTS.md for the paper mapping)\n";
  Printf.printf "Correctness tables: dune exec bin/check.exe -- table1 | table2\n";
  Printf.printf "Generator table:    dune exec bin/generate.exe -- stats\n%!";
  let sections = List.tl (Array.to_list Sys.argv) |> List.map String.lowercase_ascii in
  let want s = sections = [] || List.mem s sections in
  if want "fig3" then fig3 ();
  if want "fig4" then fig4 ();
  if want "fig5" then fig5 ();
  if want "ablations" then begin
    ablation_sampling ();
    ablation_structure ()
  end;
  if want "vec" then vec ();
  if want "par" then par ()
