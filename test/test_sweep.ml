(* The sweep engine: checkpoint encode/decode (qcheck roundtrip plus
   corruption/truncation rejection), the oracle cache's persistence and
   crash tolerance, and the engine's determinism contract — an
   interrupted-and-resumed sweep (SIGKILL mid-run) must produce a report
   bit-identical to an uninterrupted one, at any job count. *)

module C = Sweep.Checkpoint
module OC = Sweep.Oracle_cache
module E = Sweep.Engine

(* Unique scratch directories under TMPDIR; the engine/cache mkdir_p
   them on first use. *)
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

(* ------------------------------------------------------------------ *)
(* Checkpoint encoding.                                                *)
(* ------------------------------------------------------------------ *)

(* A random checkpoint in a random intermediate state, identity
   including bytes that would break a text format (the encoding is
   length-prefixed, so it must not care). *)
let random_checkpoint st =
  let random_string n =
    String.init n (fun _ ->
        match Random.State.int st 20 with
        | 0 -> '\x00'
        | 1 -> '\n'
        | 2 -> '"'
        | _ -> Char.chr (32 + Random.State.int st 95))
  in
  let identity = random_string (Random.State.int st 60) in
  let n_items = 1 + Random.State.int st 400 in
  let chunk_size = 1 + Random.State.int st 48 in
  let cp = C.create ~identity ~n_items ~chunk_size in
  Array.iteri
    (fun i _ ->
      match Random.State.int st 3 with
      | 0 -> ()
      | 1 ->
          cp.C.state.(i) <- C.Done;
          cp.C.retries.(i) <- Random.State.int st 3;
          cp.C.mismatches.(i) <-
            Array.init (Random.State.int st 4) (fun _ ->
                {
                  C.pattern = Random.State.int st 0x10000;
                  got = Random.State.int st 0x10000;
                  want = Random.State.int st 0x10000;
                })
      | _ ->
          cp.C.state.(i) <- C.Quarantined;
          cp.C.retries.(i) <- 1 + Random.State.int st 3;
          cp.C.errors.(i) <- random_string (Random.State.int st 30))
    cp.C.state;
  cp

let qcheck_roundtrip =
  QCheck.Test.make ~name:"checkpoint encode/decode roundtrip" ~count:300 QCheck.unit
    (let st = Random.State.make [| 42 |] in
     fun () ->
       let cp = random_checkpoint st in
       match C.decode (C.encode cp) with
       | Ok cp' -> cp = cp'
       | Error msg -> QCheck.Test.fail_reportf "decode failed: %s" msg)

let qcheck_corruption_rejected =
  QCheck.Test.make ~name:"one flipped byte is rejected" ~count:300 QCheck.unit
    (let st = Random.State.make [| 43 |] in
     fun () ->
       let cp = random_checkpoint st in
       let enc = Bytes.of_string (C.encode cp) in
       let i = Random.State.int st (Bytes.length enc) in
       Bytes.set enc i (Char.chr (Char.code (Bytes.get enc i) lxor (1 lsl Random.State.int st 8)));
       match C.decode (Bytes.to_string enc) with
       | Error _ -> true
       | Ok _ -> QCheck.Test.fail_reportf "corrupted byte %d accepted" i)

let qcheck_truncation_rejected =
  QCheck.Test.make ~name:"any truncation is rejected" ~count:300 QCheck.unit
    (let st = Random.State.make [| 44 |] in
     fun () ->
       let enc = C.encode (random_checkpoint st) in
       let cut = Random.State.int st (String.length enc) in
       match C.decode (String.sub enc 0 cut) with
       | Error _ -> true
       | Ok _ -> QCheck.Test.fail_reportf "truncation at %d accepted" cut)

let test_bad_magic_and_garbage () =
  let enc = C.encode (C.create ~identity:"x" ~n_items:10 ~chunk_size:4) in
  let flipped = "X" ^ String.sub enc 1 (String.length enc - 1) in
  (match C.decode flipped with
  | Error msg -> Alcotest.(check bool) "names the magic" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "bad magic accepted");
  (match C.decode (enc ^ "x") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match C.decode "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty file accepted"

let test_save_load_atomic () =
  let dir = fresh_dir "ckpt" in
  OC.mkdir_p dir;
  let path = Filename.concat dir "checkpoint.bin" in
  let cp = C.create ~identity:"save/load" ~n_items:100 ~chunk_size:16 in
  cp.C.state.(2) <- C.Done;
  C.save ~path cp;
  (match C.load ~path with
  | Ok cp' -> Alcotest.(check bool) "roundtrips through disk" true (cp = cp')
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check bool) "no tmp file left behind" false (Sys.file_exists (path ^ ".tmp"));
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Oracle cache.                                                       *)
(* ------------------------------------------------------------------ *)

let test_cache_persists () =
  let dir = fresh_dir "orc" in
  let open_it () = OC.open_ ~dir ~repr:"t16" ~func:"f" ~mode:"rne" in
  let c = open_it () in
  Alcotest.(check int) "memo computes on a miss" 7 (OC.memo (Some c) 3 (fun p -> p + 4));
  Alcotest.(check int) "one miss counted" 1 (OC.misses c);
  Alcotest.(check int) "memo serves the hit" 7 (OC.memo (Some c) 3 (fun _ -> Alcotest.fail "recomputed"));
  Alcotest.(check int) "one hit counted" 1 (OC.hits c);
  OC.close c;
  let c2 = open_it () in
  Alcotest.(check int) "entry survived reopen" 7
    (OC.memo (Some c2) 3 (fun _ -> Alcotest.fail "recomputed after reopen"));
  Alcotest.(check int) "size" 1 (OC.size c2);
  OC.close c2;
  rm_rf dir

let test_cache_truncates_partial_tail () =
  let dir = fresh_dir "orc_tail" in
  let open_it () = OC.open_ ~dir ~repr:"t16" ~func:"f" ~mode:"rne" in
  let c = open_it () in
  ignore (OC.memo (Some c) 1 (fun _ -> 11));
  ignore (OC.memo (Some c) 2 (fun _ -> 22));
  OC.close c;
  (* A kill mid-append leaves a partial trailing record. *)
  let path = Filename.concat dir "t16.f.rne.orc" in
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  output_string oc "\x01\x02\x03\x04\x05";
  close_out oc;
  let c2 = open_it () in
  Alcotest.(check int) "whole records survive" 2 (OC.size c2);
  Alcotest.(check int) "lookup intact" 22 (OC.memo (Some c2) 2 (fun _ -> Alcotest.fail "lost"));
  (* The truncated file must append cleanly on a record boundary. *)
  ignore (OC.memo (Some c2) 3 (fun _ -> 33));
  OC.close c2;
  let c3 = open_it () in
  Alcotest.(check int) "post-truncation append readable" 3 (OC.size c3);
  OC.close c3;
  rm_rf dir

let test_cache_rejects_foreign_header () =
  let dir = fresh_dir "orc_hdr" in
  OC.mkdir_p dir;
  (* A file for a different function sitting at this triple's path:
     stale bits must be refused, not served. *)
  let path = Filename.concat dir "t16.f.rne.orc" in
  let oc = open_out_bin path in
  output_string oc "RLOC 1 t16 OTHER rne\n";
  close_out oc;
  (match OC.open_ ~dir ~repr:"t16" ~func:"f" ~mode:"rne" with
  | exception Failure msg ->
      Alcotest.(check bool) "error names the mismatch" true
        (String.length msg > 0)
  | _ -> Alcotest.fail "foreign header accepted");
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Engine.                                                             *)
(* ------------------------------------------------------------------ *)

(* Synthetic pure sweep: every item with i mod 17 = 3 is a "mismatch".
   Pure function of the range, so any schedule must reproduce it. *)
let synth ~lo ~hi =
  let ms = ref [] in
  for i = hi - 1 downto lo do
    if i mod 17 = 3 then ms := { C.pattern = i; got = i land 0xff; want = (i + 1) land 0xff } :: !ms
  done;
  !ms

let run_ok ?(n = 2048) ?(chunk_size = 32) ?jobs ?resume ?dir ~identity f =
  let dir = match dir with Some d -> d | None -> fresh_dir "engine" in
  match E.run ~dir ~identity ~n ~chunk_size ~checkpoint_every:4 ?jobs ?resume f with
  | Ok o -> (dir, o)
  | Error msg -> Alcotest.failf "engine: %s" msg

let test_engine_jobs_invariant () =
  let _, base = run_ok ~jobs:1 ~identity:"jobs invariant" synth in
  List.iter
    (fun jobs ->
      let dir, o = run_ok ~jobs ~identity:"jobs invariant" synth in
      Alcotest.(check bool)
        (Printf.sprintf "jobs=%d report identical" jobs)
        true
        (o.E.mismatches = base.E.mismatches);
      Alcotest.(check int) "all chunks done" o.E.stats.total_chunks o.E.stats.completed_chunks;
      rm_rf dir)
    [ 2; 4 ];
  Alcotest.(check int) "expected mismatch count"
    (List.length (List.filter (fun i -> i mod 17 = 3) (List.init 2048 Fun.id)))
    (Array.length base.E.mismatches)

let test_engine_refuses_unflagged_restart () =
  let dir, _ = run_ok ~jobs:1 ~identity:"restart" synth in
  (match E.run ~dir ~identity:"restart" ~n:2048 ~chunk_size:32 ~jobs:1 synth with
  | Error msg -> Alcotest.(check bool) "mentions --resume" true (String.length msg > 0)
  | Ok _ -> Alcotest.fail "silently restarted over a checkpoint");
  (* Wrong identity refuses even with --resume. *)
  (match E.run ~dir ~identity:"different job" ~n:2048 ~chunk_size:32 ~jobs:1 ~resume:true synth with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resumed a foreign checkpoint");
  (* Wrong geometry refuses too. *)
  (match E.run ~dir ~identity:"restart" ~n:2048 ~chunk_size:64 ~jobs:1 ~resume:true synth with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "resumed with different geometry");
  rm_rf dir

(* An empty batch never drains the queue: the engine must refuse the
   setting up front instead of rewriting the checkpoint forever. *)
let test_engine_refuses_empty_batches () =
  let dir = fresh_dir "ckpt_every" in
  List.iter
    (fun every ->
      match E.run ~dir ~identity:"batch" ~n:2048 ~chunk_size:32 ~checkpoint_every:every ~jobs:1 synth with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted checkpoint_every = %d" every)
    [ 0; -1 ];
  rm_rf dir

let test_engine_retries_then_succeeds () =
  (* Chunk [64,96) fails on its first attempt only; jobs=1 keeps the
     attempt table single-domain. *)
  let attempts = Hashtbl.create 8 in
  let flaky ~lo ~hi =
    let k = Hashtbl.find_opt attempts lo |> Option.value ~default:0 in
    Hashtbl.replace attempts lo (k + 1);
    if lo = 64 && k = 0 then failwith "transient fault";
    synth ~lo ~hi
  in
  let _, base = run_ok ~jobs:1 ~identity:"retry baseline" synth in
  let dir, o = run_ok ~jobs:1 ~identity:"retry" flaky in
  Alcotest.(check int) "nothing quarantined" 0 o.E.stats.quarantined_chunks;
  Alcotest.(check int) "one retry recorded" 1 o.E.stats.retry_attempts;
  Alcotest.(check int) "failing chunk reattempted" 2 (Hashtbl.find attempts 64);
  Alcotest.(check bool) "report identical to the clean run" true
    (o.E.mismatches = base.E.mismatches);
  rm_rf dir

let test_engine_quarantines_persistent_failure () =
  let bad ~lo ~hi = if lo = 96 then failwith "permanent fault" else synth ~lo ~hi in
  let dir, o = run_ok ~jobs:1 ~identity:"quarantine" bad in
  Alcotest.(check int) "one chunk quarantined" 1 o.E.stats.quarantined_chunks;
  (match o.E.quarantined with
  | [ (ci, lo, hi, err) ] ->
      Alcotest.(check int) "chunk index" 3 ci;
      Alcotest.(check int) "range lo" 96 lo;
      Alcotest.(check int) "range hi" 128 hi;
      let contains sub s =
        let n = String.length sub and m = String.length s in
        let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "last error preserved" true (contains "permanent fault" err)
  | q -> Alcotest.failf "expected one quarantine record, got %d" (List.length q));
  (* Every other chunk still completed, and its mismatches survive. *)
  Alcotest.(check int) "rest completed" (o.E.stats.total_chunks - 1) (C.completed o.E.checkpoint);
  rm_rf dir

(* The acceptance scenario: SIGKILL a sweep mid-run, resume it, and the
   final report is bit-identical to an uninterrupted run — at every job
   count.

   OCaml 5 refuses Unix.fork once any domain has ever been spawned in
   the process, so the test is structured in two phases — all children
   forked and killed first (everything at jobs=1, no domains), then the
   resumes (which do spawn domains for jobs>1) — and it must run before
   any other multi-domain test in this binary. *)
let test_kill_and_resume () =
  let identity = "kill/resume" in
  let n = 2048 and chunk_size = 32 in
  let _, base = run_ok ~n ~chunk_size ~jobs:1 ~identity synth in
  let dirs = List.map (fun jobs -> (jobs, fresh_dir "engine_kill")) [ 1; 2; 4 ] in
  (* Phase 1: fork a slow sweep per job count, kill each once its
     checkpoint shows real progress. *)
  List.iter
    (fun (_, dir) ->
      let slow ~lo ~hi =
        Unix.sleepf 0.004;
        synth ~lo ~hi
      in
      let pid = Unix.fork () in
      if pid = 0 then begin
        (try ignore (E.run ~dir ~identity ~n ~chunk_size ~checkpoint_every:4 ~jobs:1 slow)
         with _ -> ());
        Unix._exit 0
      end;
      let path = Filename.concat dir "checkpoint.bin" in
      let deadline = Unix.gettimeofday () +. 30.0 in
      let rec wait () =
        let enough =
          Sys.file_exists path
          && match C.load ~path with Ok cp -> C.completed cp >= 8 | Error _ -> false
        in
        if (not enough) && Unix.gettimeofday () < deadline then begin
          Unix.sleepf 0.005;
          wait ()
        end
      in
      wait ();
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid))
    dirs;
  (* Phase 2: resume each killed sweep at its job count. *)
  List.iter
    (fun (jobs, dir) ->
      match E.run ~dir ~identity ~n ~chunk_size ~checkpoint_every:4 ~jobs ~resume:true synth with
      | Error msg -> Alcotest.failf "resume (jobs=%d): %s" jobs msg
      | Ok o ->
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: checkpoint restored progress" jobs)
            true (o.E.stats.restored_chunks > 0);
          Alcotest.(check bool)
            (Printf.sprintf "jobs=%d: resumed report identical to uninterrupted" jobs)
            true
            (o.E.mismatches = base.E.mismatches);
          Alcotest.(check int) "all chunks accounted for" o.E.stats.total_chunks
            (C.completed o.E.checkpoint);
          rm_rf dir)
    dirs

(* ------------------------------------------------------------------ *)
(* Adversarial fast-verifier case: a rounding-interval table entry      *)
(* corrupted by one ulp.  Guards against a verifier that "passes" by    *)
(* never disagreeing — the corruption must surface as a certificate     *)
(* miss (escalation), and in strict no-oracle mode as a quarantine      *)
(* record naming the input.                                             *)
(* ------------------------------------------------------------------ *)

let test_corrupted_table_entry_flagged () =
  let t = Funcs.Specs.bfloat16 in
  let g = Funcs.Libm.get ~quality:Funcs.Libm.Quick t "log2" in
  let module G = Rlibm.Generator in
  let module T = (val g.G.spec.repr) in
  (* A non-special pattern to frame. *)
  let pat =
    let rec find p =
      if p >= 1 lsl T.bits then Alcotest.fail "no non-special pattern"
      else if g.G.spec.special p = None then p
      else find (p + 1)
    in
    find 0
  in
  let rr = g.G.spec.reduce (T.to_double pat) in
  let key = Fp.Fp64.bits rr.Rlibm.Spec.r in
  (* Corrupt a private copy of the table: pull the interval's upper
     bound one ulp below the polynomial's actual value there, so the
     certificate cannot hold at [pat]. *)
  let v0 = Rlibm.Piecewise.eval g.G.pieces.(0) rr.Rlibm.Spec.r in
  let intervals = Array.map Hashtbl.copy g.G.intervals in
  (match Hashtbl.find_opt intervals.(0) key with
  | None -> Alcotest.fail "reduced input missing from the interval table"
  | Some c ->
      Hashtbl.replace intervals.(0) key
        { c with Rlibm.Reduced.hi = Fp.Fp64.advance v0 (-1); hi_open = false });
  let bad = { g with G.intervals } in
  (* Escalation mode: the miss goes to the oracle, which (the library
     being correct) agrees — so the verdict is clean but the escalation
     counter proves the corruption was caught, not skipped. *)
  let counters = Sweep.Verify.counters () in
  let v_esc = Rlibm.Verifier.make ~counters ~policy:`Fast bad in
  Alcotest.(check bool) "escalated verdict is clean" true (Sweep.Verify.check v_esc pat = None);
  Alcotest.(check int) "corruption forced an oracle escalation" 1
    (Sweep.Verify.escalated counters);
  (* Sanity: the uncorrupted table certifies the same pattern fast. *)
  let counters_ok = Sweep.Verify.counters () in
  let v_ok = Rlibm.Verifier.make ~counters:counters_ok ~policy:`Fast g in
  Alcotest.(check bool) "uncorrupted verdict is clean" true (Sweep.Verify.check v_ok pat = None);
  Alcotest.(check int) "uncorrupted table certifies oracle-free" 1
    (Sweep.Verify.fast counters_ok);
  (* Strict no-oracle mode through the engine: the chunk holding the
     corrupted input is quarantined and the record names the input. *)
  let v_fail = Rlibm.Verifier.make ~policy:`Fast ~on_escalate:`Fail bad in
  let dir = fresh_dir "adversarial" in
  (* One-item job framing exactly the corrupted input. *)
  let f ~lo:_ ~hi:_ =
    match Sweep.Verify.check v_fail pat with Some m -> [ m ] | None -> []
  in
  (match
     E.run ~dir ~identity:"adversarial" ~n:1 ~chunk_size:1 ~max_retries:0 ~checkpoint_every:1
       ~jobs:1 f
   with
  | Error msg -> Alcotest.fail msg
  | Ok o -> (
      match o.E.quarantined with
      | [ (ci, _, _, err) ] ->
          Alcotest.(check int) "the chunk holding the input" 0 ci;
          let hex = Printf.sprintf "%#x" pat in
          let contains sub s =
            let n = String.length sub and m = String.length s in
            let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
            go 0
          in
          Alcotest.(check bool)
            (Printf.sprintf "quarantine names the input %s: %s" hex err)
            true (contains hex err)
      | q -> Alcotest.failf "expected exactly one quarantined chunk, got %d" (List.length q)));
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Resume ETA basis: throughput and ETA must come from chunks finished  *)
(* THIS run — a resume that restores most of the work from the          *)
(* checkpoint has demonstrated nothing about how fast the pending       *)
(* chunks will go, so restored chunks must not inflate the rate.        *)
(* ------------------------------------------------------------------ *)

let test_resume_eta_pending_only () =
  let identity = "eta basis" in
  let n = 640 and chunk_size = 32 in
  let dir = fresh_dir "eta" in
  OC.mkdir_p dir;
  (* A checkpoint with 15 of 20 chunks already done: the resume inherits
     75% of the campaign for free. *)
  let cp = C.create ~identity ~n_items:n ~chunk_size in
  for i = 0 to 14 do
    cp.C.state.(i) <- C.Done
  done;
  C.save ~path:(Filename.concat dir "checkpoint.bin") cp;
  let rows = ref [] in
  let slow ~lo ~hi =
    Unix.sleepf 0.02;
    synth ~lo ~hi
  in
  (match
     E.run ~dir ~identity ~n ~chunk_size ~checkpoint_every:1 ~jobs:1 ~resume:true
       ~progress:(fun p -> rows := p :: !rows)
       slow
   with
  | Error msg -> Alcotest.fail msg
  | Ok _ -> ());
  let informative =
    List.filter
      (fun (p : E.progress) -> p.completed_chunks > p.restored_chunks && p.wall_seconds > 0.0)
      !rows
  in
  Alcotest.(check bool) "captured post-restore progress rows" true (informative <> []);
  List.iter
    (fun (p : E.progress) ->
      let done_this_run = p.completed_chunks - p.restored_chunks in
      (* The advertised rate counts exactly this run's chunks... *)
      Alcotest.(check bool) "rate counts pending-chunk work only" true
        (abs_float ((p.chunk_rate *. p.wall_seconds) -. float_of_int done_this_run) < 1e-6);
      (* ...the ETA derives from that rate... *)
      let remaining = p.total_chunks - p.completed_chunks - p.quarantined_chunks in
      if remaining > 0 && p.chunk_rate > 0.0 then
        Alcotest.(check bool) "eta = remaining / pending rate" true
          (abs_float (p.eta_seconds -. (float_of_int remaining /. p.chunk_rate)) < 1e-6);
      (* ...and is strictly below the misleading restored-inflated rate
         the old report implied. *)
      if p.restored_chunks > 0 && p.chunk_rate > 0.0 then
        Alcotest.(check bool) "restored chunks do not inflate the rate" true
          (p.chunk_rate < float_of_int p.completed_chunks /. p.wall_seconds))
    informative;
  rm_rf dir

let () =
  Alcotest.run "sweep"
    [
      ( "checkpoint",
        QCheck_alcotest.to_alcotest qcheck_roundtrip
        :: QCheck_alcotest.to_alcotest qcheck_corruption_rejected
        :: QCheck_alcotest.to_alcotest qcheck_truncation_rejected
        :: [
             Alcotest.test_case "bad magic / trailing garbage / empty" `Quick
               test_bad_magic_and_garbage;
             Alcotest.test_case "save/load atomic" `Quick test_save_load_atomic;
           ] );
      ( "oracle cache",
        [
          Alcotest.test_case "persists across reopen" `Quick test_cache_persists;
          Alcotest.test_case "truncates a partial tail" `Quick test_cache_truncates_partial_tail;
          Alcotest.test_case "rejects a foreign header" `Quick test_cache_rejects_foreign_header;
        ] );
      ( "engine",
        [
          (* Must run first: it forks, which OCaml 5 refuses once any
             other test has spawned a domain. *)
          Alcotest.test_case "SIGKILL + resume is bit-identical" `Quick test_kill_and_resume;
          Alcotest.test_case "bit-identical at jobs 1/2/4" `Quick test_engine_jobs_invariant;
          Alcotest.test_case "refuses restart without --resume" `Quick
            test_engine_refuses_unflagged_restart;
          Alcotest.test_case "refuses checkpoint_every < 1" `Quick
            test_engine_refuses_empty_batches;
          Alcotest.test_case "retries transient chunk failures" `Quick
            test_engine_retries_then_succeeds;
          Alcotest.test_case "quarantines persistent failures" `Quick
            test_engine_quarantines_persistent_failure;
          Alcotest.test_case "resume ETA uses pending-chunk throughput only" `Quick
            test_resume_eta_pending_only;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "one-ulp table corruption is flagged and quarantined" `Quick
            test_corrupted_table_entry_flagged;
        ] );
    ]
