(* Correctness checker: Tables 1 and 2 of the paper.

   For every function and every library, count wrong results over two
   input sets:

   - the generation enumeration (the RLIBM function is validated on it,
     mirroring the paper's all-inputs guarantee at our sampled scale);
   - a disjoint fresh stratified sample (measures the sampling residue
     of scaled-down generation — see DESIGN.md).

   Ground truth is the special-case analysis (machine-checked in the
   test suite) plus the arbitrary-precision oracle. *)

module R = Fp.Representation
module G = Rlibm.Generator

let value_equal (module T : R.S) a b =
  a = b
  ||
  match (T.classify a, T.classify b) with
  | R.Finite, R.Finite -> T.to_double a = T.to_double b
  | R.Nan, R.Nan -> true
  | _ -> false

type lib = { lname : string; eval : int -> int }

let libraries (t : Funcs.Specs.target) name (g : G.generated) =
  List.filter_map
    (fun (lname, eval) -> Option.map (fun eval -> { lname; eval }) eval)
    (Comparators.all t name g)

let check_function (t : Funcs.Specs.target) name ~fresh_per_stratum ~quality =
  let module T = (val t.repr) in
  let g = Funcs.Libm.get ~quality t name in
  let libs = libraries t name g in
  let truth pat =
    match g.spec.special pat with
    | Some y -> y
    | None ->
        Oracle.Elementary.correctly_rounded
          ~round:(T.round_rational ~mode:g.spec.mode)
          g.spec.oracle (T.to_rational pat)
  in
  (* Sharded across domains: each shard counts into its own array; the
     shard-order element-wise sum makes the totals identical at every
     job count (integer addition is associative-commutative anyway, but
     the merge order is fixed regardless). *)
  let nlibs = List.length libs in
  let count patterns =
    Parallel.fold_chunks ~n:(Array.length patterns)
      ~combine:(fun a b -> Array.map2 ( + ) a b)
      ~init:(Array.make nlibs 0)
      (fun ~lo ~hi ->
        let wrong = Array.make nlibs 0 in
        for k = lo to hi - 1 do
          let pat = patterns.(k) in
          let want = truth pat in
          List.iteri
            (fun i l ->
              if not (value_equal (module T) (l.eval pat) want) then wrong.(i) <- wrong.(i) + 1)
            libs
        done;
        wrong)
  in
  let gen_set = Funcs.Libm.enumeration t quality in
  let fresh =
    (* 16-bit targets are exhaustive already: the "fresh" column would
       re-check the same ground truth. *)
    if Array.length gen_set = 65536 then [||]
    else Rlibm.Enumerate.stratified32 ~seed:77 ~per_stratum:fresh_per_stratum ()
  in
  let w_gen = count gen_set and w_fresh = count fresh in
  Printf.printf "%-7s | %8s %8s | %s\n" name "enum" "fresh" "library";
  List.iteri
    (fun i l ->
      Printf.printf "        | %8d %8d | %s\n" w_gen.(i) w_fresh.(i) l.lname)
    libs;
  Printf.printf "          (enum = %d inputs, fresh = %d inputs)\n%!" (Array.length gen_set)
    (Array.length fresh)

let label (t : Funcs.Specs.target) =
  if t.mode = Fp.Rounding_mode.Rne then t.tname
  else t.tname ^ "@" ^ Fp.Rounding_mode.to_string t.mode

let run_table (t : Funcs.Specs.target) names ~fresh_per_stratum ~quality =
  Printf.printf "=== %s correctness (wrong-result counts; paper Table %s) ===\n%!" (label t)
    (if t.tname = "posit32" then "2" else "1");
  List.iter
    (fun name ->
      try check_function t name ~fresh_per_stratum ~quality
      with Failure msg -> Printf.printf "%-7s | GENERATION FAILED: %s\n%!" name msg)
    names

open Cmdliner

let jobs_term =
  let doc = "Worker domains for the sharded passes (default: RLIBM_JOBS or the runtime's recommendation)." in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~doc)

let set_jobs = function Some j -> Parallel.set_jobs j | None -> ()

let quality_term =
  let q =
    Arg.(value
         & opt (enum [ ("quick", Funcs.Libm.Quick); ("full", Funcs.Libm.Full) ]) Funcs.Libm.Quick
         & info [ "quality" ]
             ~doc:"Generation quality: quick (8/stratum, default) or full (24/stratum).")
  in
  q

let fresh_term =
  Arg.(value & opt int 8 & info [ "fresh-per-stratum" ] ~doc:"Fresh-sample density per stratum.")

let funcs_term =
  Arg.(value & opt_all string [] & info [ "f"; "function" ] ~doc:"Check only this function (repeatable).")

let mode_conv =
  let parse s =
    match Fp.Rounding_mode.of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg ("unknown rounding mode: " ^ s ^ " (want rne/rna/up/down/zero/odd)"))
  in
  Arg.conv (parse, Fp.Rounding_mode.pp)

let mode_term =
  Arg.(value & opt (some mode_conv) None
       & info [ "mode" ]
           ~doc:"Check the target under this rounding mode (rne, rna, up, down, zero, odd).  \
                 Non-nearest modes restrict the default function list to the odd-capable set.")

let apply_mode mode (t : Funcs.Specs.target) =
  match mode with None -> t | Some m -> Funcs.Specs.with_mode t m

let default_names (t : Funcs.Specs.target) fns ~posit =
  if fns <> [] then fns
  else if t.mode <> Fp.Rounding_mode.Rne then Funcs.Specs.non_nearest_functions t.mode
  else if posit then Funcs.Specs.posit_functions
  else Funcs.Specs.float_functions

let table1 jobs quality fresh mode fns =
  set_jobs jobs;
  let t = apply_mode mode Funcs.Specs.float32 in
  run_table t (default_names t fns ~posit:false) ~fresh_per_stratum:fresh ~quality

let table2 jobs quality fresh mode fns =
  set_jobs jobs;
  let t = apply_mode mode Funcs.Specs.posit32 in
  run_table t (default_names t fns ~posit:true) ~fresh_per_stratum:fresh ~quality

(* Table 1/2 with nothing sampled: every input of every 16-bit target.
   This is the scale where our guarantee equals the paper's. *)
let table16 jobs quality fresh mode fns =
  set_jobs jobs;
  List.iter
    (fun (t : Funcs.Specs.target) ->
      let t = apply_mode mode t in
      run_table t (default_names t fns ~posit:(t.tname = "posit16")) ~fresh_per_stratum:fresh
        ~quality)
    [ Funcs.Specs.bfloat16; Funcs.Specs.float16; Funcs.Specs.posit16 ]

(* RLIBM-ALL (Lim & Nagarakatte 2021) witness: evaluate bfloat16 and
   float16 through the ONE float34 round-to-odd table, re-rounding its
   27-bit output in each requested standard mode, and compare every
   16-bit input against the mode-aware oracle.  A zero count per (target,
   function, mode) is the paper's headline claim at full 16-bit scale. *)
let derived jobs quality modes fns =
  set_jobs jobs;
  let names = if fns = [] then [ "log2"; "exp" ] else fns in
  let modes = if modes = [] then Fp.Rounding_mode.standard else modes in
  Printf.printf "=== derived from the single float34 round-to-odd table ===\n%!";
  List.iter
    (fun (base : Funcs.Specs.target) ->
      List.iter
        (fun name ->
          List.iter
            (fun mode ->
              let t = Funcs.Specs.with_mode base mode in
              let module T = (val t.repr) in
              let spec = Funcs.Specs.by_name name t in
              let f = Funcs.Derived.fn ~quality t.repr ~mode name in
              let truth pat =
                match spec.Rlibm.Spec.special pat with
                | Some y -> y
                | None ->
                    Oracle.Elementary.correctly_rounded
                      ~round:(T.round_rational ~mode)
                      spec.Rlibm.Spec.oracle (T.to_rational pat)
              in
              let pats = Rlibm.Enumerate.exhaustive16 in
              let wrong =
                Parallel.fold_chunks ~n:(Array.length pats) ~combine:( + ) ~init:0
                  (fun ~lo ~hi ->
                    let bad = ref 0 in
                    for k = lo to hi - 1 do
                      let pat = pats.(k) in
                      if not (value_equal (module T) (f pat) (truth pat)) then incr bad
                    done;
                    !bad)
              in
              Printf.printf "%-8s %-7s %-5s | %8d wrong of %d\n%!" base.tname name
                (Fp.Rounding_mode.to_string mode)
                wrong (Array.length pats))
            modes)
        names)
    [ Funcs.Specs.bfloat16; Funcs.Specs.float16 ]

let modes_term =
  Arg.(value & opt_all mode_conv []
       & info [ "mode" ]
           ~doc:"Standard rounding mode to derive (repeatable; default: all five).")

(* ------------------------------------------------------------------ *)
(* Certification sweep: every (strided) pattern of the target checked   *)
(* against the oracle through Campaign — one chunk-aligned shard by     *)
(* default, or many, run in this process or in forked workers.  This is *)
(* the scale at which the paper's all-inputs claim is actually          *)
(* verified, so the run must survive a kill: each shard's chunk         *)
(* completion lands in its checkpoint after every batch, a finished     *)
(* shard writes its datafile row, --resume picks up exactly the pending *)
(* work, and the merged report is byte-identical at any shard or worker *)
(* count, under either verifier, interrupted or not.                    *)
(* ------------------------------------------------------------------ *)

let target_by_name = function
  | "float32" -> Funcs.Specs.float32
  | "posit32" -> Funcs.Specs.posit32
  | "bfloat16" -> Funcs.Specs.bfloat16
  | "float16" -> Funcs.Specs.float16
  | "posit16" -> Funcs.Specs.posit16
  | s -> invalid_arg ("unknown target " ^ s ^ " (want float32/posit32/bfloat16/float16/posit16)")

let quality_name = function
  | Funcs.Libm.Draft -> "draft"
  | Funcs.Libm.Quick -> "quick"
  | Funcs.Libm.Full -> "full"

(* Resolve the verifier policy, refusing [`Fast] when the certificate
   would be unsound (non-exhaustive generation) and reporting what
   [`Auto] picked. *)
let resolve_policy (policy : Rlibm.Verifier.policy) (g : G.generated) =
  match policy with
  | `Fast when not (Rlibm.Verifier.certifiable g) ->
      prerr_endline
        (Printf.sprintf
           "--verifier fast: %s was generated from %d patterns, not the full 2^%d — the \
            oracle-free certificate is only sound over an exhaustive enumeration (use auto or \
            oracle)"
           g.G.spec.name g.G.stats.n_inputs
           (let module T = (val g.G.spec.repr) in
            T.bits));
      exit 3
  | `Auto -> if Rlibm.Verifier.certifiable g then `Fast else `Oracle
  | (`Fast | `Oracle) as p -> p

(* A progressive generation changes which coefficients are served, but
   not the sweep identity: verdicts are output-level and the tier is
   bit-identical to the full path, so reports from progressive and
   classic runs must stay interchangeable (byte-identical). *)
let cfg_of_prog prog =
  if prog then Some { Rlibm.Config.default with progressive = true } else None

let refuse fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline msg;
      exit 3)
    fmt

let sweep jobs quality prog mode tname fname stride chunk ckpt_every retries dir resume cache_dir
    verifier shards workers shard_sel do_merge =
  if stride < 1 then refuse "sweep: --stride must be at least 1 (got %d)" stride;
  if workers < 0 then refuse "sweep: --workers must be 0 (in-process) or more (got %d)" workers;
  (* OCaml refuses fork once a domain has been spawned, so a forking run
     pins the parent to one domain and [--jobs] applies inside the
     workers; in-process runs use [--jobs] for generation and the
     engine. *)
  if workers > 0 then Parallel.set_jobs 1 else set_jobs jobs;
  let t = apply_mode mode (target_by_name tname) in
  let module T = (val t.repr) in
  let n = (((1 lsl T.bits) - 1) / stride) + 1 in
  let mode_s = Fp.Rounding_mode.to_string t.mode in
  (* Free of verifier policy, shard count and worker count: the report
     must byte-compare across all of them. *)
  let identity =
    Printf.sprintf "rlibm-sweep v1 target=%s func=%s mode=%s bits=%d stride=%d quality=%s"
      t.tname fname mode_s T.bits stride (quality_name quality)
  in
  let finish (o : Campaign.outcome) =
    let m = o.merged in
    let metric k = Option.value ~default:0.0 (List.assoc_opt k m.metrics) in
    let quarantined_items = Array.fold_left (fun a (lo, hi, _) -> a + (hi - lo)) 0 m.quarantined in
    let c_shards = Campaign.Plan.n_shards o.plan in
    if List.mem_assoc "busy_seconds" m.metrics then
      Rlibm.Stats.pp_campaign Format.std_formatter
        {
          Rlibm.Stats.c_items = n - quarantined_items;
          c_shards;
          c_busy_seconds = metric "busy_seconds";
          c_wall_seconds = o.wall_seconds;
          c_fast = int_of_float (metric "fast");
          c_escalated = int_of_float (metric "escalated");
          c_mismatches = Array.length m.mismatches;
          c_quarantined = Array.length m.quarantined;
        }
    else
      Printf.printf
        "  campaign %d items over %d shards: %d mismatches, %d quarantined ranges, %.1fs wall \
         (no throughput counters: a shard resumed checkpointed work)\n"
        (n - quarantined_items) c_shards (Array.length m.mismatches) (Array.length m.quarantined)
        o.wall_seconds;
    Array.iter
      (fun (lo, hi, msg) -> Printf.printf "  QUARANTINED points %d..%d: %s\n" lo (hi - 1) msg)
      m.quarantined;
    Printf.printf "report: %s\ndatafile: %s\n%!" o.report_path o.datafile_path;
    exit
      (if Array.length m.quarantined > 0 then 2 else if Array.length m.mismatches > 0 then 1 else 0)
  in
  if do_merge then
    match Campaign.merge_only ~dir ~identity ~n ~shards ~chunk_size:chunk () with
    | Error msg -> refuse "%s" msg
    | Ok o -> finish o
  else begin
    let g = Funcs.Libm.get ~quality ?cfg:(cfg_of_prog prog) t fname in
    let policy = resolve_policy verifier g in
    let counters = Sweep.Verify.counters () in
    (* The oracle cache outlives the sweep directory on purpose: repeated
       sweeps, hard-case hunts and cached generations all share it.  A
       multi-shard run gives each shard its own cache file under it,
       because the append-only format is not safe for concurrent
       writer processes. *)
    let cache_root =
      match (cache_dir, Rlibm.Config.default.oracle_cache_dir) with
      | Some d, _ | None, Some d -> d
      | None, None -> dir
    in
    let job ~shard =
      let cdir =
        if shards = 1 then cache_root
        else Filename.concat (Campaign.Plan.shard_dir cache_root shard) "cache"
      in
      let cache = Sweep.Oracle_cache.open_ ~dir:cdir ~repr:T.name ~func:fname ~mode:mode_s in
      let v = Rlibm.Verifier.make ~counters ~cache ~policy g in
      { Campaign.f = Sweep.Verify.sweep_fn v ~stride (); cache = Some cache; counters = Some counters }
    in
    let key =
      { Campaign.func = fname; repr = t.tname; mode = mode_s; tables_hash = G.tables_fingerprint g }
    in
    let last_print = ref 0.0 in
    let progress (p : Sweep.Engine.progress) =
      let now = Unix.gettimeofday () in
      if now -. !last_print >= 1.0 then begin
        last_print := now;
        Rlibm.Stats.pp_sweep Format.std_formatter p
      end
    in
    Printf.printf "sweep: %s — %d points in chunks of %d, %d shard(s), %s verifier (dir %s%s)\n%!"
      identity n chunk shards
      (match policy with `Fast -> "fast (oracle on escalation)" | `Oracle -> "oracle")
      dir
      (if resume then ", resuming" else "");
    match shard_sel with
    | Some s -> (
        (* Run exactly one shard in this process (a worker invocation —
           what the fork driver does for you, by hand); merge separately
           with --merge. *)
        match Campaign.Plan.make ~n_items:n ~chunk_size:chunk ~shards with
        | Error msg -> refuse "%s" msg
        | Ok plan -> (
            if s < 0 || s >= Campaign.Plan.n_shards plan then
              refuse "sweep: no shard %d in a %d-shard plan" s shards;
            match
              Campaign.run_shard ~dir ~identity ~key ~plan ~shard:s ~max_retries:retries
                ~checkpoint_every:ckpt_every ?jobs ~resume ~progress (job ~shard:s)
            with
            | Error msg -> refuse "%s" msg
            | Ok r ->
                let lo, hi = plan.shards.(s) in
                Printf.printf
                  "shard %d done: [%d,%d), %d mismatches, %d quarantined ranges\ndatafile: %s\n%!" s
                  lo hi (Array.length r.mismatches) (Array.length r.quarantined)
                  (Campaign.shard_datafile dir s);
                exit 0))
    | None -> (
        let exec = if workers = 0 then Campaign.In_process else Campaign.Fork workers in
        match
          Campaign.run ~dir ~identity ~key ~n ~shards ~chunk_size:chunk ~max_retries:retries
            ~checkpoint_every:ckpt_every ?jobs ~resume ~progress ~exec ~job ()
        with
        | Error msg -> refuse "%s" msg
        | Ok o -> finish o)
  end

let table1_cmd =
  Cmd.v (Cmd.info "table1" ~doc:"Float32 correctness table (paper Table 1)")
    Term.(const table1 $ jobs_term $ quality_term $ fresh_term $ mode_term $ funcs_term)

let table2_cmd =
  Cmd.v (Cmd.info "table2" ~doc:"Posit32 correctness table (paper Table 2)")
    Term.(const table2 $ jobs_term $ quality_term $ fresh_term $ mode_term $ funcs_term)

let table16_cmd =
  Cmd.v
    (Cmd.info "table16"
       ~doc:"Exhaustive 16-bit correctness tables (every input of bfloat16/float16/posit16)")
    Term.(const table16 $ jobs_term $ quality_term $ fresh_term $ mode_term $ funcs_term)

let prog_term =
  Arg.(value & flag
       & info [ "prog" ]
           ~doc:"Verify the progressively generated artifact: the sweep classifies through the \
                 tier the serving kernel actually selects (certified prefix, full polynomial on \
                 certificate miss).  The report is byte-identical to a non-progressive run.")

let sweep_tname =
  Arg.(value & opt string "bfloat16" & info [ "t"; "target" ] ~doc:"Target type to sweep.")

let sweep_fname = Arg.(value & opt string "log2" & info [ "f"; "function" ] ~doc:"Function name.")

let stride_term =
  Arg.(value & opt int 1
       & info [ "stride" ]
           ~doc:"Check every $(docv)-th pattern (1 = the full pattern space).  The stride is part \
                 of the job identity: a checkpoint cannot be resumed under a different stride.")

let chunk_term =
  Arg.(value & opt int 4096 & info [ "chunk" ] ~doc:"Sweep points per chunk (the retry/checkpoint unit).")

let ckpt_every_term =
  Arg.(value & opt int 32
       & info [ "checkpoint-every" ]
           ~doc:"Chunks per batch: the checkpoint is rewritten (atomic rename) after every batch, \
                 so a kill loses at most this many chunks of work.")

let retries_term =
  Arg.(value & opt int 2
       & info [ "retries" ]
           ~doc:"Retries per failing chunk before it is quarantined (reported, never silently dropped).")

let dir_term =
  Arg.(value & opt string "_sweep"
       & info [ "dir" ]
           ~doc:"Sweep state directory: one shard-NNNN/ per shard (checkpoint + shard datafile), \
                 the merged report.txt and datafile.json.")

let resume_term =
  Arg.(value & flag
       & info [ "resume" ]
           ~doc:"Resume the run in $(b,--dir): finished shards are skipped, the others re-run \
                 only chunks not yet completed.  The final report is bit-identical to an \
                 uninterrupted run.")

let cache_dir_term =
  Arg.(value & opt (some string) None
       & info [ "cache-dir" ]
           ~doc:"Persistent oracle cache directory (default: RLIBM_ORACLE_CACHE, else \
                 $(b,--dir)).  A 1-shard run opens its cache there, shared with other sweeps, \
                 hard-case hunts and cached generations; a multi-shard run opens one \
                 shard-NNNN/cache per shard under it.  Repeated sweeps skip Ziv's loop on every \
                 pattern already settled there.")

let verifier_term =
  Arg.(value
       & opt (enum [ ("auto", `Auto); ("fast", `Fast); ("oracle", `Oracle) ]) `Auto
       & info [ "verifier" ]
           ~doc:"Verification strategy: $(b,oracle) runs Ziv's arbitrary-precision loop on every \
                 pattern; $(b,fast) re-evaluates the compiled polynomial and certifies against \
                 the stored rounding-interval table, escalating to the oracle only on a \
                 certificate miss (sound only for exhaustively generated functions); \
                 $(b,auto) picks fast exactly when that soundness condition holds.  The verdicts \
                 and the report are identical either way.")

let shards_term =
  Arg.(value & opt int 1
       & info [ "shards" ]
           ~doc:"Contiguous chunk-aligned sub-ranges the pattern space is cut into.  Part of the \
                 shard state layout: resume and merge must use the same value.")

let workers_term =
  Arg.(value & opt int 0
       & info [ "workers" ]
           ~doc:"Concurrent worker processes (fork-based).  0 runs the shards sequentially in \
                 this process (no fork).")

let shard_sel_term =
  Arg.(value & opt (some int) None
       & info [ "shard" ]
           ~doc:"Run only shard $(docv) of the plan in this process, then exit — the manual \
                 worker invocation (one machine of a distributed run, or a smoke test's kill \
                 target).  Merge separately with $(b,--merge).")

let merge_term =
  Arg.(value & flag
       & info [ "merge" ]
           ~doc:"Run nothing: read the shard datafiles under $(b,--dir), refuse overlaps, gaps \
                 and tables drift, and write the merged report.")

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:"Resumable, checkpointed, shardable certification sweep: validate every (strided) \
             pattern of a target against the oracle, surviving kills and faulty chunks.  The \
             pattern space is cut into chunk-aligned shards (one by default), each swept with \
             its own checkpoint, in this process or in forked workers, and the shard datafiles \
             merge into one verdict.  The report is byte-identical at any shard/worker count \
             and under either verifier.")
    Term.(const sweep $ jobs_term $ quality_term $ prog_term $ mode_term $ sweep_tname
          $ sweep_fname $ stride_term $ chunk_term $ ckpt_every_term $ retries_term $ dir_term
          $ resume_term $ cache_dir_term $ verifier_term $ shards_term $ workers_term
          $ shard_sel_term $ merge_term)

let derived_cmd =
  Cmd.v
    (Cmd.info "derived"
       ~doc:"Exhaustive 16-bit check of bfloat16/float16 in every standard rounding mode, \
             all derived from the single float34 round-to-odd table (RLIBM-ALL)")
    Term.(const derived $ jobs_term $ quality_term $ modes_term $ funcs_term)

let () =
  let info = Cmd.info "check" ~doc:"RLIBM-32 correctness experiments (Tables 1-2)" in
  exit
    (Cmd.eval
       (Cmd.group info [ table1_cmd; table2_cmd; table16_cmd; derived_cmd; sweep_cmd ]))
