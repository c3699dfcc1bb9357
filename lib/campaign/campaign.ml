(* Certification runs: Sweep.Engine over a chunk-aligned shard plan, one
   shard or many, in this process or fanned out to forked workers.

   Why fork and not the Parallel domain pool: a campaign at 2^32 scale
   must survive a worker *crash* (OOM kill, node reboot) and must be
   able to span invocations and machines.  One domain pool dies with its
   process; separate worker processes each own a shard directory with
   their own Sweep.Engine checkpoint, so any subset of shards can be
   re-run, resumed or farmed out elsewhere, and the merge step is the
   only place the pieces meet.

   OCaml 5 refuses [Unix.fork] once any domain has ever been spawned in
   the process, so a forking campaign driver must run before/without
   domains — keep [Parallel.set_jobs 1] in the parent and let each
   worker child set its own job count ([jobs] here applies inside the
   workers).  [In_process] runs the shards sequentially in this process
   instead: same shard state, same reports, no fork.

   Per-shard resources: [job ~shard] is called in the worker process
   (after the fork, or inline for [In_process]) so each shard can open
   its own oracle cache — the append-only cache file format is not safe
   for concurrent writers, so concurrent shards must not share one
   cache file.

   The shard record: a shard that finishes writes one schema-v1
   datafile, shard-NNNN/datafile.json (atomic and checksummed, see
   Datafile.write).  Its single row carries the run key, the shard's
   span, its verdicts in campaign-global coordinates (item ranges and
   pattern values, never shard-local) and its summable counters — the
   latter only when the shard ran whole in one invocation.  The
   file is the shard's completion record: resume skips a shard whose
   file reads back cleanly under this identity and span, so a torn or
   foreign file only costs a re-run.  The merge is Datafile.merge_rows
   over the shard rows, which refuses identity or tables drift,
   geometry disagreement, overlaps and gaps — a quiet verdict over
   missing inputs would be a false certification.  The merged row lands
   in dir/datafile.json and its canonical text (Datafile.campaign_text,
   free of timings and shard counts) in dir/report.txt. *)

(* campaign.ml is the library's toplevel module, so re-export the
   planner: Campaign.Plan. *)
module Plan = Plan

type job = {
  f : lo:int -> hi:int -> Sweep.Checkpoint.mismatch list;
      (* campaign-global item coordinates, like a 1-shard run's *)
  cache : Sweep.Oracle_cache.t option;  (* synced at checkpoints, closed with the shard *)
  counters : Sweep.Verify.counters option;  (* the verifier's, for the shard row *)
}

type exec = In_process | Fork of int  (* concurrent worker processes *)

(* What a shard row says about the run besides its verdicts: the row
   group key and the fingerprint of the tables being certified. *)
type key = { func : string; repr : string; mode : string; tables_hash : string }

type outcome = {
  plan : Plan.t;
  merged : Datafile.row;
      (* span [0, n_items); counters summed over shards, or absent when
         a shard resumed checkpointed work *)
  report_path : string;
  datafile_path : string;
  wall_seconds : float;  (* driver wall clock for this invocation *)
}

let datafile_name = "datafile.json"
let shard_datafile dir s = Filename.concat (Plan.shard_dir dir s) datafile_name
let report_path dir = Filename.concat dir "report.txt"

let shard_span (plan : Plan.t) s =
  let lo, hi = plan.shards.(s) in
  { Datafile.lo; hi; n_items = plan.n_items; chunk_size = plan.chunk_size }

let write_datafile ~path ~identity ?jobs (row : Datafile.row) =
  Datafile.write ~path
    {
      Datafile.rev = Datafile.git_rev ();
      date = Datafile.timestamp ();
      seed = None;
      config = identity;
      host =
        Some
          {
            Datafile.jobs = (match jobs with Some j -> j | None -> Parallel.jobs ());
            cpus = Domain.recommended_domain_count ();
            ocaml = Sys.ocaml_version;
          };
      rows = [ row ];
    }

(* A shard whose datafile reads back cleanly with this run's identity
   and this shard's span is complete; anything else (absent, torn,
   foreign) means the shard still has work.  The engine's own
   identity/geometry checks guard the checkpoint underneath. *)
let done_row ~identity ~(plan : Plan.t) ~dir s =
  match Datafile.read ~path:(shard_datafile dir s) with
  | Ok { rows = [ r ]; _ } when r.identity = identity && r.span = Some (shard_span plan s) -> Some r
  | Ok _ | Error _ -> None

let shard_done ~identity ~plan ~dir s = Option.is_some (done_row ~identity ~plan ~dir s)

(** Run one shard to completion in this process and persist its row.
    Resumes the shard's own engine checkpoint under [resume]; a shard
    already complete is not re-run and keeps its row. *)
let run_shard ~dir ~identity ~key ~(plan : Plan.t) ~shard ?(max_retries = 2)
    ?(checkpoint_every = Sweep.Engine.default_checkpoint_every) ?jobs ?(resume = false) ?progress
    (j : job) : (Datafile.row, string) result =
  match if resume then done_row ~identity ~plan ~dir shard else None with
  | Some r ->
      Option.iter Sweep.Oracle_cache.close j.cache;
      Ok r
  | None ->
      let span = shard_span plan shard in
      let lo = span.lo in
      let count get = match j.counters with Some c -> get c | None -> 0 in
      let fast0 = count Sweep.Verify.fast and esc0 = count Sweep.Verify.escalated in
      let f ~lo:l ~hi:h = j.f ~lo:(l + lo) ~hi:(h + lo) in
      (* The counters below cover this invocation only.  A shard that picks
         up checkpointed work would under-count, so its row leaves them out
         (and the merge drops a counter any shard row lacks). *)
      let whole =
        (not resume)
        ||
        let path = Sweep.Engine.checkpoint_path (Plan.shard_dir dir shard) in
        match Sweep.Checkpoint.load ~path with
        | Ok cp ->
            Array.for_all (( = ) Sweep.Checkpoint.Pending) cp.state
            && Array.for_all (( = ) 0) cp.retries
        | Error _ -> true
      in
      let r =
        Sweep.Engine.run ~dir:(Plan.shard_dir dir shard)
          ~identity:(Printf.sprintf "%s shard=[%d,%d)" identity lo span.hi)
          ~n:(span.hi - lo) ~chunk_size:plan.chunk_size ~max_retries ~checkpoint_every ?jobs ~resume
          ?cache:j.cache ?verify:j.counters ?progress f
      in
      (match j.cache with Some c -> Sweep.Oracle_cache.close c | None -> ());
      match r with
      | Error msg -> Error (Printf.sprintf "shard %d: %s" shard msg)
      | Ok o ->
          let int_metric k v = (k, float_of_int v) in
          let row =
            {
              Datafile.kind = "sweep";
              func = key.func;
              repr = key.repr;
              mode = key.mode;
              identity;
              tables_hash = key.tables_hash;
              span = Some span;
              metrics =
                (if not whole then []
                 else
                   [
                     int_metric "fast" (count Sweep.Verify.fast - fast0);
                     int_metric "escalated" (count Sweep.Verify.escalated - esc0);
                     ("busy_seconds", o.stats.wall_seconds);
                     int_metric "retry_attempts" o.stats.retry_attempts;
                     int_metric "cache_hits" o.stats.cache_hits;
                     int_metric "cache_misses" o.stats.cache_misses;
                   ]);
              mismatches =
                Array.map
                  (fun (m : Sweep.Checkpoint.mismatch) ->
                    { Datafile.pattern = m.pattern; got = m.got; want = m.want })
                  o.mismatches;
              quarantined =
                Array.of_list
                  (List.map (fun (_ci, qlo, qhi, msg) -> (qlo + lo, qhi + lo, msg)) o.quarantined);
            }
          in
          write_datafile ~path:(shard_datafile dir shard) ~identity ?jobs row;
          Ok row

(* Fork-based scheduler: at most [workers] children alive; each child
   runs exactly one shard through [run_one] and exits 0 on success.  We
   always reap every child we started before reporting, so no zombies
   outlive the call. *)
let run_forked ~workers run_one pending =
  let failures = ref [] in
  let live = Hashtbl.create 8 in
  let reap () =
    let pid, status = Unix.wait () in
    match Hashtbl.find_opt live pid with
    | None -> ()  (* not ours; implausible, but harmless *)
    | Some s ->
        Hashtbl.remove live pid;
        (match status with
        | Unix.WEXITED 0 -> ()
        | Unix.WEXITED c -> failures := (s, Printf.sprintf "exit code %d" c) :: !failures
        | Unix.WSIGNALED sg -> failures := (s, Printf.sprintf "killed by signal %d" sg) :: !failures
        | Unix.WSTOPPED _ -> failures := (s, "stopped") :: !failures)
  in
  let spawn s =
    (* Flush before forking so buffered output is not emitted twice. *)
    flush stdout;
    flush stderr;
    match Unix.fork () with
    | 0 ->
        let code =
          try
            match run_one s with
            | Ok _ -> 0
            | Error msg ->
                Printf.eprintf "campaign worker: %s\n%!" msg;
                3
          with e ->
            Printf.eprintf "campaign worker: shard %d: %s\n%!" s (Printexc.to_string e);
            3
        in
        (* _exit: no at_exit, no double flush of inherited buffers. *)
        Unix._exit code
    | pid -> Hashtbl.replace live pid s
  in
  (try
     List.iter
       (fun s ->
         if Hashtbl.length live >= workers then reap ();
         spawn s)
       pending;
     while Hashtbl.length live > 0 do
       reap ()
     done
   with e ->
     (* fork refused (e.g. a domain was already spawned in this process):
        reap whatever did start, then report. *)
     while Hashtbl.length live > 0 do
       reap ()
     done;
     failures := (-1, Printexc.to_string e) :: !failures);
  match List.rev !failures with
  | [] -> Ok ()
  | fs ->
      Error
        (String.concat "; "
           (List.map
              (fun (s, m) ->
                if s < 0 then Printf.sprintf "campaign: fork failed: %s (run the driver with \
                                              Parallel jobs=1, or use in-process mode)" m
                else Printf.sprintf "campaign: shard %d failed (%s) — its checkpoint is intact; \
                                     re-run with resume" s m)
              fs))

(* Weld every shard row present under [dir] into the run verdict and
   write report.txt and datafile.json.  A missing shard file leaves a
   gap in the tiling, which Datafile.merge_rows names. *)
let merge_shards ~dir ~identity ?jobs ~(plan : Plan.t) t0 : (outcome, string) result =
  let read s =
    let path = shard_datafile dir s in
    if not (Sys.file_exists path) then Ok []
    else
      match Datafile.read ~path with
      | Ok d -> Ok d.rows
      | Error m -> Error (Printf.sprintf "campaign merge: %s: %s" path m)
  in
  let rec gather acc s =
    if s < 0 then Ok acc
    else match read s with Error _ as e -> e | Ok rows -> gather (rows @ acc) (s - 1)
  in
  match gather [] (Plan.n_shards plan - 1) with
  | Error _ as e -> e
  | Ok [] -> Error (Printf.sprintf "campaign merge: no shard datafiles under %s" dir)
  | Ok rows -> (
      match Datafile.merge_rows rows with
      | Error _ as e -> e
      | Ok merged when merged.identity <> identity ->
          Error
            (Printf.sprintf
               "campaign merge: shard datafiles belong to a different run\n  shards:    %s\n  \
                requested: %s"
               merged.identity identity)
      | Ok merged ->
          let merged =
            {
              merged with
              metrics =
                List.filter
                  (fun (k, _) -> List.for_all (fun (r : Datafile.row) -> List.mem_assoc k r.metrics) rows)
                  merged.metrics;
            }
          in
          let rp = report_path dir in
          let tmp = rp ^ ".tmp" in
          let oc = open_out_bin tmp in
          output_string oc (Datafile.campaign_text merged);
          close_out oc;
          Sys.rename tmp rp;
          let dp = Filename.concat dir datafile_name in
          write_datafile ~path:dp ~identity ?jobs merged;
          Ok
            {
              plan;
              merged;
              report_path = rp;
              datafile_path = dp;
              wall_seconds = Unix.gettimeofday () -. t0;
            })

(** Run (or resume) a whole campaign: plan shards, run the pending ones
    under [exec], then merge every shard row into the campaign verdict
    and write the canonical text report.  [job ~shard] is evaluated in
    the worker process that runs that shard. *)
let run ~dir ~identity ~key ~n ~shards ?(chunk_size = Sweep.Engine.default_chunk_size)
    ?(max_retries = 2) ?(checkpoint_every = Sweep.Engine.default_checkpoint_every) ?jobs
    ?(resume = false) ?progress ~exec ~(job : shard:int -> job) () : (outcome, string) result =
  match Plan.make ~n_items:n ~chunk_size ~shards with
  | Error msg -> Error msg
  | Ok plan -> (
      let t0 = Unix.gettimeofday () in
      Sweep.Oracle_cache.mkdir_p dir;
      let all = List.init (Plan.n_shards plan) Fun.id in
      match
        if resume then None else List.find_opt (fun s -> Sys.file_exists (shard_datafile dir s)) all
      with
      | Some s ->
          Error
            (Printf.sprintf
               "campaign: %s already holds shard results (shard %d); pass --resume to continue this \
                campaign or remove the directory to start over"
               dir s)
      | None -> (
          let pending =
            if resume then List.filter (fun s -> not (shard_done ~identity ~plan ~dir s)) all
            else all
          in
          let run_one s =
            run_shard ~dir ~identity ~key ~plan ~shard:s ~max_retries ~checkpoint_every ?jobs
              ~resume ?progress (job ~shard:s)
          in
          let ran =
            match exec with
            | In_process ->
                List.fold_left
                  (fun acc s ->
                    match acc with
                    | Error _ as e -> e
                    | Ok () -> (
                        match run_one s with
                        | Ok _ -> Ok ()
                        | Error msg -> Error ("campaign: " ^ msg)))
                  (Ok ()) pending
            | Fork workers -> run_forked ~workers:(Stdlib.max 1 workers) run_one pending
          in
          match ran with
          | Error _ as e -> e
          | Ok () -> merge_shards ~dir ~identity ?jobs ~plan t0))

(** Merge-only entry point: read every shard datafile under [dir] for
    [plan], merge, write the report.  Runs nothing. *)
let merge_only ~dir ~identity ~n ~shards ?(chunk_size = Sweep.Engine.default_chunk_size) () :
    (outcome, string) result =
  match Plan.make ~n_items:n ~chunk_size ~shards with
  | Error msg -> Error msg
  | Ok plan -> merge_shards ~dir ~identity ~plan (Unix.gettimeofday ())
