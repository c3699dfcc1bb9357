(* Hard-case hunter: find inputs whose exact function value lies
   unusually close to a rounding boundary of the target type.

   These are the inputs that break real-value-approximating libraries —
   the glibc/Intel/CR-LIBM failures of Tables 1-2 are precisely
   hard cases past the comparator's error bound (Lefevre and Muller's
   worst cases for correct rounding; the paper cites their double-
   precision search [28]).  The hunter reports, per input, the
   "hardness" h = -log2(2*d/ulp), where d is the distance from f(x) to
   the nearest rounding boundary of T: a straightforward implementation
   with relative error 2^-p misrounds an input of hardness >= p.  It
   also doubles as a fresh-sample generator for the correctness checker
   (check the library exactly where it is most likely to be wrong). *)

module Q = Rational
module E = Oracle.Elementary
module R = Fp.Representation

(* Distance from the exact value [q] to the nearest boundary of its
   rounding interval in T, normalized by the interval width; both as
   rationals for exactness, reported as hardness bits.  The
   correctly-rounded result goes through the persistent oracle cache
   when one is attached, so re-hunts (and sweeps over the same target)
   skip Ziv's loop on settled inputs. *)
let hardness ?cache (module T : R.S) (f : E.fn) pat =
  let x = T.to_rational pat in
  match f ~prec:200 x with
  | E.Exact _ -> None (* exactly representable values are not hard cases *)
  | E.Approx v ->
      let q = Oracle.Bigfloat.to_rational v in
      let y =
        Sweep.Oracle_cache.memo cache pat (fun _ -> E.correctly_rounded ~round:T.round_rational f x)
      in
      (match T.classify y with
      | R.Finite ->
          let iv = Rlibm.Rounding.interval (module T) y in
          let lo = Q.of_float iv.lo and hi = Q.of_float iv.hi in
          let width = Q.sub hi lo in
          if Q.sign width <= 0 then None
          else begin
            let d = Q.min (Q.sub q lo) (Q.sub hi q) in
            if Q.sign d <= 0 then Some 200.0
            else begin
              (* hardness = log2(width / (2 d)) + 1ish; use ilog2. *)
              let ratio = Q.div width (Q.mul_pow2 d 1) in
              Some (float_of_int (Q.ilog2 ratio))
            end
          end
      | R.Inf _ | R.Nan -> None)

let run jobs tname fname per_stratum top cache_dir =
  (match jobs with Some j -> Parallel.set_jobs j | None -> ());
  let target =
    match tname with
    | "float32" -> Funcs.Specs.float32
    | "posit32" -> Funcs.Specs.posit32
    | "bfloat16" -> Funcs.Specs.bfloat16
    | "float16" -> Funcs.Specs.float16
    | _ -> invalid_arg ("unknown target " ^ tname)
  in
  let module T = (val target.repr) in
  let spec = Funcs.Specs.by_name fname target in
  let cache_dir =
    match cache_dir with Some _ -> cache_dir | None -> Rlibm.Config.default.oracle_cache_dir
  in
  let cache =
    Option.map
      (fun dir ->
        Sweep.Oracle_cache.open_ ~dir ~repr:T.name ~func:fname
          ~mode:(Fp.Rounding_mode.to_string Fp.Rounding_mode.Rne))
      cache_dir
  in
  let patterns =
    if T.bits = 16 then Rlibm.Enumerate.exhaustive16
    else Rlibm.Enumerate.stratified32 ~seed:1234 ~per_stratum ()
  in
  (* Sharded boundary hunt: each shard collects its own (hardness, pat)
     list in pattern order; shard-order concatenation keeps the combined
     list identical at every job count, and the final sort is stable so
     equal-hardness ties stay in pattern order. *)
  let found =
    Parallel.fold_chunks ~n:(Array.length patterns)
      ~combine:(fun a b -> a @ b)
      ~init:[]
      (fun ~lo ~hi ->
        let acc = ref [] in
        for k = hi - 1 downto lo do
          let pat = patterns.(k) in
          if spec.special pat = None then
            match hardness ?cache target.repr spec.oracle pat with
            | Some h when h > 30.0 -> acc := (h, pat) :: !acc
            | _ -> ()
        done;
        !acc)
  in
  let sorted = List.stable_sort (fun (a, _) (b, _) -> compare (b : float) a) found in
  Printf.printf "%s %s: %d inputs scanned, %d with hardness > 30 bits\n" tname fname
    (Array.length patterns) (List.length sorted);
  Printf.printf "%-12s %-10s %s\n" "hardness" "pattern" "x";
  List.iteri
    (fun i (h, pat) ->
      if i < top then Printf.printf "%-12.0f %08x   %.17g\n" h pat (T.to_double pat))
    sorted;
  (* The generated library must get even these right. *)
  match Funcs.Libm.get ~quality:Funcs.Libm.Quick target fname with
  | exception Failure msg -> Printf.printf "(library generation failed: %s)\n" msg
  | g ->
      let wrong =
        List.filter
          (fun (_, pat) ->
            let want =
              Sweep.Oracle_cache.memo cache pat (fun pat ->
                  E.correctly_rounded ~round:T.round_rational spec.oracle (T.to_rational pat))
            in
            not (Rlibm.Generator.patterns_value_equal target.repr (Rlibm.Generator.eval_pattern g pat) want))
          sorted
      in
      Printf.printf "rlibm-32 on the hard cases: %d wrong of %d\n" (List.length wrong)
        (List.length sorted);
      Option.iter
        (fun c ->
          Sweep.Oracle_cache.close c;
          Printf.printf "oracle cache: %d hits, %d misses (%d entries)\n"
            (Sweep.Oracle_cache.hits c) (Sweep.Oracle_cache.misses c) (Sweep.Oracle_cache.size c))
        cache

open Cmdliner

let jobs =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ]
           ~doc:"Worker domains for the sharded scan (default: RLIBM_JOBS or the runtime's recommendation).")

let tname = Arg.(value & opt string "float32" & info [ "t"; "target" ] ~doc:"Target type.")
let fname = Arg.(value & opt string "exp" & info [ "f"; "function" ] ~doc:"Function name.")
let per = Arg.(value & opt int 16 & info [ "per-stratum" ] ~doc:"Patterns per stratum (32-bit targets).")
let top = Arg.(value & opt int 20 & info [ "top" ] ~doc:"How many hardest inputs to print.")

let cache_dir =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ]
           ~doc:"Persistent oracle cache directory (default: RLIBM_ORACLE_CACHE, else no cache).  \
                 Shared with check sweep and cached generation runs, so settled inputs skip Ziv's \
                 loop.")

let () =
  let cmd =
    Cmd.v
      (Cmd.info "hardcases" ~doc:"Find inputs near rounding boundaries (worst cases for correct rounding)")
      Term.(const run $ jobs $ tname $ fname $ per $ top $ cache_dir)
  in
  exit (Cmd.eval cmd)
