(* Chunked, checkpointed, fault-tolerant sweep engine.

   A sweep job partitions the item space [0, n) into fixed-size chunks
   and drives them through {!Parallel} in batches.  After every batch
   the checkpoint is rewritten via atomic rename, so a SIGKILL loses at
   most one in-flight batch and a resumed run re-executes exactly the
   chunks the checkpoint still shows as pending.

   Fault tolerance: a chunk whose worker raises is retried up to
   [max_retries] more times (re-enqueued after the remaining work, so
   transient faults get maximal settling time); a chunk that keeps
   failing is *quarantined* — recorded in the checkpoint and the final
   outcome with its last error, never silently dropped.

   Determinism: the chunk function must be a pure function of its range.
   Mismatch records live per chunk and the final report is assembled in
   chunk order, so an interrupted-and-resumed run, at any job count,
   produces a report bit-identical to an uninterrupted one. *)

module C = Checkpoint

type progress = {
  total_chunks : int;
  completed_chunks : int;  (* includes chunks restored from the checkpoint *)
  restored_chunks : int;  (* already Done when this run started *)
  quarantined_chunks : int;
  retry_attempts : int;  (* failed attempts observed during this run *)
  cache_hits : int;  (* from the attached oracle cache; 0 without one *)
  cache_misses : int;
  fast_path : int;  (* oracle-free certifications from the attached verifier *)
  escalations : int;  (* verifier verdicts that needed the Ziv oracle *)
  wall_seconds : float;  (* this run only *)
  chunk_rate : float;  (* chunks/s over work done THIS run; restored chunks
                          cost this run nothing and must not inflate it *)
  eta_seconds : float;  (* remaining work at [chunk_rate] *)
}

type outcome = {
  checkpoint : C.t;  (* final state, as persisted *)
  mismatches : C.mismatch array;  (* flat, chunk order then pattern order *)
  quarantined : (int * int * int * string) list;  (* chunk, lo, hi, last error *)
  stats : progress;
}

let default_chunk_size = 4096
let default_checkpoint_every = 32

let checkpoint_path dir = Filename.concat dir "checkpoint.bin"

let flat_mismatches (cp : C.t) =
  Array.concat (Array.to_list cp.mismatches)

let quarantine_list (cp : C.t) =
  let acc = ref [] in
  for i = Array.length cp.state - 1 downto 0 do
    if cp.state.(i) = C.Quarantined then begin
      let lo, hi = C.chunk_range cp i in
      acc := (i, lo, hi, cp.errors.(i)) :: !acc
    end
  done;
  !acc

(** Run (or resume) a sweep job.

    [identity] fingerprints the job (target, function, mode, stride,
    ...); a checkpoint recorded under a different identity or geometry
    refuses to resume.  [f ~lo ~hi] validates items [lo, hi) and returns
    the mismatches it found, in item order; it may raise to signal a
    chunk failure.  Without [resume], an existing checkpoint in [dir] is
    an error — starting over is an explicit decision (delete the
    directory), never an accident. *)
let run ~dir ~identity ~n ?(chunk_size = default_chunk_size) ?(max_retries = 2)
    ?(checkpoint_every = default_checkpoint_every) ?jobs ?(resume = false) ?cache ?verify
    ?(progress : (progress -> unit) option) (f : lo:int -> hi:int -> C.mismatch list) :
    (outcome, string) result =
  if n <= 0 then Error "sweep: empty item space"
  else if checkpoint_every < 1 then
    Error (Printf.sprintf "sweep: checkpoint_every must be at least 1 (got %d)" checkpoint_every)
  else begin
    Oracle_cache.mkdir_p dir;
    let path = checkpoint_path dir in
    let fresh () = C.create ~identity ~n_items:n ~chunk_size in
    let cp0 =
      if Sys.file_exists path then
        if not resume then
          Error
            (Printf.sprintf
               "sweep: %s already holds a checkpoint; pass --resume to continue it or remove the \
                directory to start over"
               dir)
        else
          match C.load ~path with
          | Error msg -> Error (Printf.sprintf "sweep: cannot resume: %s" msg)
          | Ok cp ->
              if cp.identity <> identity then
                Error
                  (Printf.sprintf
                     "sweep: checkpoint belongs to a different job\n  checkpoint: %s\n  requested:  %s"
                     cp.identity identity)
              else if cp.n_items <> n || cp.chunk_size <> chunk_size then
                Error
                  (Printf.sprintf
                     "sweep: checkpoint geometry mismatch (checkpoint %d items / %d per chunk, \
                      requested %d / %d)"
                     cp.n_items cp.chunk_size n chunk_size)
              else Ok cp
      else Ok (fresh ())
    in
    match cp0 with
    | Error _ as e -> e
    | Ok cp ->
        let nc = Array.length cp.state in
        let restored = C.completed cp in
        let t0 = Unix.gettimeofday () in
        let retry_attempts = ref 0 in
        (* Pending chunks, ascending; retries re-enqueue at the tail. *)
        let queue = Queue.create () in
        for i = 0 to nc - 1 do
          if cp.state.(i) = C.Pending then Queue.add i queue
        done;
        let done_this_run = ref 0 in
        let stats_now () =
          let wall = Unix.gettimeofday () -. t0 in
          let completed = restored + !done_this_run in
          let remaining = nc - completed - C.quarantined cp in
          (* ETA basis: chunks finished *this run* over this run's wall
             clock.  A resumed run restoring 90% of its chunks in an
             instant has not demonstrated a 10x chunk rate. *)
          let rate =
            if !done_this_run > 0 && wall > 0.0 then float_of_int !done_this_run /. wall
            else 0.0
          in
          let eta = if rate > 0.0 && remaining > 0 then float_of_int remaining /. rate else 0.0 in
          {
            total_chunks = nc;
            completed_chunks = completed;
            restored_chunks = restored;
            quarantined_chunks = C.quarantined cp;
            retry_attempts = !retry_attempts;
            cache_hits = (match cache with Some c -> Oracle_cache.hits c | None -> 0);
            cache_misses = (match cache with Some c -> Oracle_cache.misses c | None -> 0);
            fast_path = (match verify with Some v -> Verify.fast v | None -> 0);
            escalations = (match verify with Some v -> Verify.escalated v | None -> 0);
            wall_seconds = wall;
            chunk_rate = rate;
            eta_seconds = eta;
          }
        in
        let checkpoint_now () =
          (match cache with Some c -> Oracle_cache.sync c | None -> ());
          C.save ~path cp;
          match progress with Some p -> p (stats_now ()) | None -> ()
        in
        (* Persist the (possibly fresh) checkpoint before any work, so a
           kill during the very first batch still leaves a resumable
           file behind. *)
        checkpoint_now ();
        while not (Queue.is_empty queue) do
          let batch = Array.init (Stdlib.min checkpoint_every (Queue.length queue)) (fun _ -> Queue.pop queue) in
          let results =
            Parallel.map_chunks ?jobs ~n:(Array.length batch) (fun ~lo ~hi ->
                Array.init (hi - lo) (fun k ->
                    let ci = batch.(lo + k) in
                    let clo, chi = C.chunk_range cp ci in
                    match f ~lo:clo ~hi:chi with
                    | ms -> (ci, Ok ms)
                    | exception e -> (ci, Error (Printexc.to_string e))))
          in
          Array.iter
            (Array.iter (fun (ci, r) ->
                 match r with
                 | Ok ms ->
                     cp.state.(ci) <- C.Done;
                     cp.mismatches.(ci) <- Array.of_list ms;
                     incr done_this_run
                 | Error msg ->
                     incr retry_attempts;
                     cp.retries.(ci) <- cp.retries.(ci) + 1;
                     cp.errors.(ci) <- msg;
                     if cp.retries.(ci) > max_retries then cp.state.(ci) <- C.Quarantined
                     else Queue.add ci queue))
            results;
          checkpoint_now ()
        done;
        Ok
          {
            checkpoint = cp;
            mismatches = flat_mismatches cp;
            quarantined = quarantine_list cp;
            stats = stats_now ();
          }
  end
