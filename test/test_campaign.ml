(* The sharded campaign driver and the oracle-free fast verifier.

   Three battlegrounds:
   - crash determinism: fork+SIGKILL one shard worker, resume, merge —
     the campaign report must be byte-identical to an uninterrupted
     single-shard run (and to a forked multi-worker run);
   - merge hygiene: order-insensitive byte-identical merges; overlapping,
     missing, foreign, geometry-skewed and other-tables shard rows
     refused loudly; a torn shard datafile re-run, never trusted;
   - the fast verifier itself: differential against the Ziv oracle — on
     every verdict, for bfloat16/float16 log2/exp under all five standard
     rounding modes.  A disagreement is a test failure, never a fallback:
     the fast path must only ever be *faster*, not *different*.

   Fork-ordering constraint (same as test_sweep): OCaml 5 refuses
   Unix.fork once any domain has ever been spawned in the process, so
   the forking tests run first and the whole binary pins Parallel to
   jobs=1 — generation and the in-process engine then never spawn a
   domain. *)

let () = Parallel.set_jobs 1

module C = Sweep.Checkpoint
module V = Sweep.Verify
module G = Rlibm.Generator
module P = Campaign.Plan
module D = Datafile

let fresh_dir =
  let ctr = ref 0 in
  fun prefix ->
    incr ctr;
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rlibm_%s.%d.%d" prefix (Unix.getpid ()) !ctr)

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p

let read_file p =
  let ic = open_in_bin p in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* ------------------------------------------------------------------ *)
(* Synthetic campaign job: pure function of the global range, with a    *)
(* deterministic mismatch pattern and one permanently faulty chunk, so  *)
(* mismatch AND quarantine determinism are both exercised.              *)
(* ------------------------------------------------------------------ *)

let n_items = 2048
let chunk_size = 32
let identity = "campaign-test v1"

(* Items with i mod 17 = 3 mismatch; the chunk holding item 100 always
   faults (quarantined at the same global range under any shard plan). *)
let synth ~lo ~hi =
  if lo <= 100 && 100 < hi then failwith "permanent fault";
  let ms = ref [] in
  for i = hi - 1 downto lo do
    if i mod 17 = 3 then ms := { C.pattern = i; got = i land 0xff; want = (i + 1) land 0xff } :: !ms
  done;
  !ms

let synth_job ~shard:_ = { Campaign.f = synth; cache = None; counters = None }
let key = { Campaign.func = "synth"; repr = "test"; mode = "rne"; tables_hash = "fnv1a:test" }

let run_campaign ?(shards = 1) ?(resume = false) ?(exec = Campaign.In_process) dir =
  match
    Campaign.run ~dir ~identity ~key ~n:n_items ~shards ~chunk_size ~checkpoint_every:4 ~jobs:1
      ~resume ~exec ~job:synth_job ()
  with
  | Ok o -> o
  | Error msg -> Alcotest.failf "campaign: %s" msg

(* The uninterrupted single-shard reference everything must reproduce. *)
let reference = lazy (
  let dir = fresh_dir "camp_ref" in
  let o = run_campaign ~shards:1 dir in
  let text = read_file o.report_path in
  rm_rf dir;
  (o.merged, text))

(* ------------------------------------------------------------------ *)
(* Fork-based tests (must run before any domain is spawned).            *)
(* ------------------------------------------------------------------ *)

let test_sigkill_resume_merge () =
  let _, ref_text = Lazy.force reference in
  let dir = fresh_dir "camp_kill" in
  let plan =
    match P.make ~n_items ~chunk_size ~shards:2 with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  (* Shard 0 runs to completion up front. *)
  (match
     Campaign.run_shard ~dir ~identity ~key ~plan ~shard:0 ~checkpoint_every:4 ~jobs:1
       (synth_job ~shard:0)
   with
  | Ok _ -> ()
  | Error m -> Alcotest.failf "shard 0: %s" m);
  (* Shard 1 runs slowed-down in a forked worker and is SIGKILLed once
     its checkpoint shows real progress. *)
  let slow_job ~shard:_ =
    {
      Campaign.f =
        (fun ~lo ~hi ->
          Unix.sleepf 0.004;
          synth ~lo ~hi);
      cache = None;
      counters = None;
    }
  in
  flush stdout;
  flush stderr;
  let pid = Unix.fork () in
  if pid = 0 then begin
    (try
       ignore
         (Campaign.run_shard ~dir ~identity ~key ~plan ~shard:1 ~checkpoint_every:4 ~jobs:1
            (slow_job ~shard:1))
     with _ -> ());
    Unix._exit 0
  end;
  let ckpt = Filename.concat (P.shard_dir dir 1) "checkpoint.bin" in
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec wait () =
    let enough =
      Sys.file_exists ckpt
      && match C.load ~path:ckpt with Ok cp -> C.completed cp >= 4 | Error _ -> false
    in
    if (not enough) && Unix.gettimeofday () < deadline then begin
      Unix.sleepf 0.005;
      wait ()
    end
  in
  wait ();
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  Alcotest.(check bool) "killed worker left no shard datafile" false
    (Sys.file_exists (Campaign.shard_datafile dir 1));
  (* Resume the campaign: shard 0 skipped (datafile intact), shard 1
     resumed from its checkpoint; then the auto-merge. *)
  let o = run_campaign ~shards:2 ~resume:true dir in
  Alcotest.(check string) "resumed 2-shard report == uninterrupted 1-shard report" ref_text
    (read_file o.report_path);
  rm_rf dir

let test_forked_workers_match_in_process () =
  let _, ref_text = Lazy.force reference in
  let dir = fresh_dir "camp_fork" in
  let o = run_campaign ~shards:3 ~exec:(Campaign.Fork 2) dir in
  Alcotest.(check int) "three shards merged" 3 (P.n_shards o.plan);
  Alcotest.(check string) "forked 3-shard report == 1-shard report" ref_text
    (read_file o.report_path);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Plan and merge properties.                                          *)
(* ------------------------------------------------------------------ *)

let test_plan_tiles_and_aligns () =
  List.iter
    (fun shards ->
      match P.make ~n_items ~chunk_size ~shards with
      | Error m -> Alcotest.fail m
      | Ok p ->
          let cursor = ref 0 in
          Array.iter
            (fun (lo, hi) ->
              Alcotest.(check int) "contiguous" !cursor lo;
              Alcotest.(check bool) "non-empty" true (hi > lo);
              Alcotest.(check int) "chunk-aligned boundary" 0 (lo mod chunk_size);
              cursor := hi)
            p.P.shards;
          Alcotest.(check int) "tiles the item space" n_items !cursor)
    [ 1; 2; 3; 7; 64 ];
  (match P.make ~n_items:100 ~chunk_size:32 ~shards:5 with
  | Error _ -> ()  (* 4 chunks cannot host 5 shards *)
  | Ok _ -> Alcotest.fail "accepted more shards than chunks");
  match P.make ~n_items:0 ~chunk_size:32 ~shards:1 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted an empty item space"

(* Hand-built shard rows over a 3-shard tiling of [0, 300), shaped like
   the rows Campaign.run_shard writes. *)
let shard_row ?(identity = "m") ?(n_items = 300) ?(chunk_size = 50) ~lo ~hi () =
  {
    D.kind = "sweep";
    func = key.func;
    repr = key.repr;
    mode = key.mode;
    identity;
    tables_hash = key.tables_hash;
    span = Some { D.lo; hi; n_items; chunk_size };
    metrics =
      [ ("fast", float_of_int (hi - lo - 10)); ("escalated", 10.0); ("busy_seconds", 1.5) ];
    mismatches = [| { D.pattern = lo + 1; got = 0; want = 1 } |];
    quarantined = [| (lo + 10, lo + 20, Printf.sprintf "fault@%d" lo) |];
  }

let test_merge_order_insensitive () =
  let a = shard_row ~lo:0 ~hi:100 () in
  let b = shard_row ~lo:100 ~hi:250 () in
  let c = shard_row ~lo:250 ~hi:300 () in
  let merge perm =
    match D.merge_rows perm with
    | Ok m -> m
    | Error msg -> Alcotest.failf "merge refused a valid tiling: %s" msg
  in
  let texts =
    List.map (fun perm -> D.campaign_text (merge perm)) [ [ a; b; c ]; [ c; a; b ]; [ b; c; a ]; [ c; b; a ] ]
  in
  List.iter
    (fun t -> Alcotest.(check string) "permutation byte-identical" (List.hd texts) t)
    (List.tl texts);
  (* Counters aggregate regardless of order. *)
  let m = merge [ c; a; b ] in
  let metric k = List.assoc k m.D.metrics in
  Alcotest.(check (float 0.0)) "fast summed" 270.0 (metric "fast");
  Alcotest.(check (float 0.0)) "escalated summed" 30.0 (metric "escalated");
  Alcotest.(check int) "mismatches concatenated ascending" 3 (Array.length m.D.mismatches);
  Alcotest.(check (float 1e-9)) "busy time summed" 4.5 (metric "busy_seconds")

let expect_merge_error ~what rows =
  match D.merge_rows rows with
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "error names the problem (%s): %s" what msg)
        true
        (String.length msg > 0)
  | Ok _ -> Alcotest.failf "merge accepted %s" what

let test_merge_rejections () =
  let a = shard_row ~lo:0 ~hi:100 () in
  let c = shard_row ~lo:250 ~hi:300 () in
  expect_merge_error ~what:"an empty row list" [];
  expect_merge_error ~what:"a gap" [ a; c ];
  expect_merge_error ~what:"a missing tail" [ a; shard_row ~lo:100 ~hi:250 () ];
  expect_merge_error ~what:"an overlap" [ a; shard_row ~lo:50 ~hi:300 () ];
  expect_merge_error ~what:"a foreign campaign" [ a; shard_row ~identity:"other" ~lo:100 ~hi:300 () ];
  expect_merge_error ~what:"disagreeing geometry" [ a; shard_row ~chunk_size:25 ~lo:100 ~hi:300 () ]

let plan_of shards =
  match P.make ~n_items ~chunk_size ~shards with Ok p -> p | Error m -> Alcotest.fail m

(* A campaign resumed after the tables changed must not weld verdicts
   about two different artifacts into one certificate. *)
let test_merge_refuses_tables_drift () =
  let dir = fresh_dir "camp_tables" in
  let plan = plan_of 2 in
  List.iter
    (fun (shard, tables_hash) ->
      match
        Campaign.run_shard ~dir ~identity ~key:{ key with tables_hash } ~plan ~shard
          ~checkpoint_every:4 ~jobs:1 (synth_job ~shard)
      with
      | Ok _ -> ()
      | Error m -> Alcotest.failf "shard %d: %s" shard m)
    [ (0, "fnv1a:aa"); (1, "fnv1a:bb") ];
  (match Campaign.merge_only ~dir ~identity ~n:n_items ~shards:2 ~chunk_size () with
  | Error msg ->
      Alcotest.(check bool) ("error names the tables: " ^ msg) true
        (let rec at i = i + 6 <= String.length msg && (String.sub msg i 6 = "tables" || at (i + 1)) in
         at 0)
  | Ok _ -> Alcotest.fail "merged shards certified against different tables");
  rm_rf dir

(* A torn shard datafile is not a completion record: resume re-runs that
   shard (from its finished checkpoint) and the report is unchanged. *)
let test_torn_shard_datafile_reruns () =
  let _, ref_text = Lazy.force reference in
  let dir = fresh_dir "camp_torn" in
  ignore (run_campaign ~shards:2 dir);
  let path = Campaign.shard_datafile dir 1 in
  let whole = read_file path in
  let oc = open_out_bin path in
  output_string oc (String.sub whole 0 (String.length whole / 2));
  close_out oc;
  let o = run_campaign ~shards:2 ~resume:true dir in
  Alcotest.(check bool) "torn shard datafile rewritten" true
    (Result.is_ok (D.read ~path));
  Alcotest.(check string) "report == uninterrupted 1-shard report" ref_text
    (read_file o.report_path);
  rm_rf dir

let test_campaign_refuses_unflagged_restart () =
  let dir = fresh_dir "camp_restart" in
  ignore (run_campaign ~shards:2 dir);
  (match
     Campaign.run ~dir ~identity ~key ~n:n_items ~shards:2 ~chunk_size ~jobs:1
       ~exec:Campaign.In_process ~job:synth_job ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "silently restarted over shard results");
  rm_rf dir

(* Shard counters cover one invocation, so a shard that resumes
   checkpointed work writes a row without them and the merged row drops
   them, instead of summing a partial count.  The interruption is an
   exception out of the progress callback after shard 0's second batch. *)
let test_resumed_shard_omits_counters () =
  let ref_row, ref_text = Lazy.force reference in
  let counters (r : D.row) = List.map fst r.metrics in
  Alcotest.(check bool) "uninterrupted run carries counters" true
    (List.mem "busy_seconds" (counters ref_row));
  let dir = fresh_dir "camp_partial" in
  let calls = ref 0 in
  let stop (_ : Sweep.Engine.progress) =
    incr calls;
    if !calls = 3 then raise Exit
  in
  (match
     Campaign.run ~dir ~identity ~key ~n:n_items ~shards:2 ~chunk_size ~checkpoint_every:4
       ~jobs:1 ~progress:stop ~exec:Campaign.In_process ~job:synth_job ()
   with
  | exception Exit -> ()
  | _ -> Alcotest.fail "the interrupted run finished");
  let o = run_campaign ~shards:2 ~resume:true dir in
  let row s =
    match D.read ~path:(Campaign.shard_datafile dir s) with
    | Ok { rows = [ r ]; _ } -> r
    | Ok _ -> Alcotest.failf "shard %d: expected one row" s
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check (list string)) "resumed shard row has no counters" [] (counters (row 0));
  Alcotest.(check (list string)) "fresh shard row has counters" (counters ref_row) (counters (row 1));
  Alcotest.(check (list string)) "merged row drops partial counters" [] (counters o.merged);
  Alcotest.(check string) "report unaffected" ref_text (read_file o.report_path);
  (match
     Campaign.run_shard ~dir ~identity ~key ~plan:o.plan ~shard:1 ~resume:true
       (synth_job ~shard:1)
   with
  | Ok r ->
      Alcotest.(check (list string)) "a finished shard resumed again keeps its row"
        (counters ref_row) (counters r)
  | Error m -> Alcotest.fail m);
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Differential tier: fast verifier vs the Ziv oracle (satellite 1).    *)
(*                                                                      *)
(* For each target x function x rounding mode, a generation at Quick    *)
(* quality (exhaustive 16-bit enumeration), then random strided ranges  *)
(* verified twice — once through the certificate-based fast verifier,   *)
(* once purely through the oracle — demanding identical verdicts on     *)
(* every pattern.  A fast verifier that is ever *different* fails here, *)
(* no matter how plausible its answer.                                  *)
(* ------------------------------------------------------------------ *)

let differential_combo (target : Funcs.Specs.target) fname mode =
  let t = Funcs.Specs.with_mode target mode in
  let module T = (val t.repr) in
  let g = Funcs.Libm.get ~quality:Funcs.Libm.Quick t fname in
  Alcotest.(check bool) "16-bit generation is exhaustive (certificate sound)" true
    (Rlibm.Verifier.certifiable g);
  let fast_counters = V.counters () in
  let vfast = Rlibm.Verifier.make ~counters:fast_counters ~policy:`Fast g in
  let voracle = Rlibm.Verifier.make ~policy:`Oracle g in
  let st = Random.State.make [| 0xD1F; T.bits; Hashtbl.hash (fname, Fp.Rounding_mode.to_string mode) |] in
  let total = 1 lsl T.bits in
  for _ = 1 to 24 do
    let stride = 1 + Random.State.int st 97 in
    let span = 64 in
    let max_lo = Stdlib.max 1 ((total / stride) - span) in
    let lo = Random.State.int st max_lo in
    let hi = Stdlib.min (lo + span) (((total - 1) / stride) + 1) in
    (* Whole-range verdict lists must agree... *)
    let mf = V.sweep_fn vfast ~stride () ~lo ~hi in
    let mo = V.sweep_fn voracle ~stride () ~lo ~hi in
    if mf <> mo then
      Alcotest.failf "%s/%s/%s: fast and oracle verifiers disagree on [%d,%d) stride %d"
        t.tname fname
        (Fp.Rounding_mode.to_string mode)
        lo hi stride;
    (* ...and so must every individual verdict. *)
    for i = lo to hi - 1 do
      let pat = i * stride in
      if V.check vfast pat <> V.check voracle pat then
        Alcotest.failf "%s/%s/%s: verdict disagrees at pattern %#x" t.tname fname
          (Fp.Rounding_mode.to_string mode)
          pat
    done
  done;
  (* The fast path must actually be a fast path, not escalate-everything
     in disguise. *)
  Alcotest.(check bool)
    (Printf.sprintf "%s/%s/%s: >= 95%% certified oracle-free (got %.2f%%)" t.tname fname
       (Fp.Rounding_mode.to_string mode)
       (V.fast_pct fast_counters))
    true
    (V.fast_pct fast_counters >= 95.0)

let differential_tests =
  List.concat_map
    (fun (target, tn) ->
      List.concat_map
        (fun fname ->
          List.map
            (fun mode ->
              Alcotest.test_case
                (Printf.sprintf "%s %s %s" tn fname (Fp.Rounding_mode.to_string mode))
                `Slow
                (fun () -> differential_combo target fname mode))
            Fp.Rounding_mode.standard)
        [ "log2"; "exp" ])
    [ (Funcs.Specs.bfloat16, "bfloat16"); (Funcs.Specs.float16, "float16") ]

(* The acceptance-criterion scenario at test scale: the full 2^16
   bfloat16 space through a fast-verifier campaign, >= 95% oracle-free,
   report byte-identical to the oracle-only campaign. *)
let test_full_bf16_fast_vs_oracle () =
  let t = Funcs.Specs.bfloat16 in
  let g = Funcs.Libm.get ~quality:Funcs.Libm.Quick t "log2" in
  let n = 65536 in
  let id = "campaign-test bf16 log2 full" in
  let run policy =
    let dir = fresh_dir "camp_full" in
    let counters = V.counters () in
    let job ~shard:_ =
      let v = Rlibm.Verifier.make ~counters ~policy g in
      { Campaign.f = V.sweep_fn v ~stride:1 (); cache = None; counters = Some counters }
    in
    match
      Campaign.run ~dir ~identity:id ~key ~n ~shards:2 ~chunk_size:1024 ~jobs:1
        ~exec:Campaign.In_process ~job ()
    with
    | Error msg -> Alcotest.failf "campaign: %s" msg
    | Ok o ->
        let text = read_file o.report_path in
        rm_rf dir;
        (o.merged, text)
  in
  let mf, ft = run `Fast in
  let _, ot = run `Oracle in
  Alcotest.(check string) "fast report == oracle report" ot ft;
  Alcotest.(check int) "no mismatches" 0 (Array.length mf.D.mismatches);
  let fast = List.assoc "fast" mf.D.metrics and escalated = List.assoc "escalated" mf.D.metrics in
  let pct = 100.0 *. fast /. (fast +. escalated) in
  Alcotest.(check bool)
    (Printf.sprintf ">= 95%% oracle-free (got %.2f%%)" pct)
    true (pct >= 95.0)

let () =
  Alcotest.run "campaign"
    [
      ( "fork",
        [
          (* Must run first: they fork, which OCaml 5 refuses once any
             test has spawned a domain. *)
          Alcotest.test_case "SIGKILL one shard + resume + merge == uninterrupted" `Quick
            test_sigkill_resume_merge;
          Alcotest.test_case "forked workers == in-process == single shard" `Quick
            test_forked_workers_match_in_process;
        ] );
      ( "plan/merge",
        [
          Alcotest.test_case "plans tile and chunk-align" `Quick test_plan_tiles_and_aligns;
          Alcotest.test_case "merge is order-insensitive" `Quick test_merge_order_insensitive;
          Alcotest.test_case "merge refuses overlap/gap/foreign" `Quick test_merge_rejections;
          Alcotest.test_case "merge refuses shards of different tables" `Quick
            test_merge_refuses_tables_drift;
          Alcotest.test_case "torn shard datafile is re-run on resume" `Quick
            test_torn_shard_datafile_reruns;
          Alcotest.test_case "refuses restart without resume" `Quick
            test_campaign_refuses_unflagged_restart;
          Alcotest.test_case "resumed shard row omits its counters" `Quick
            test_resumed_shard_omits_counters;
        ] );
      ( "differential",
        Alcotest.test_case "full bf16 log2: fast == oracle, >=95% oracle-free" `Quick
          test_full_bf16_fast_vs_oracle
        :: differential_tests );
    ]
