(* Batch drivers over {!Kernel} plans: the pattern-array pipeline
   behind Funcs.Batch.eval_patterns, its progressive-tier variant, and
   per-domain plan pinning.

   Sharding follows the Funcs.Batch convention: below [par_min] the loop
   runs inline on the calling domain (domain spawn overhead would
   dominate), above it the index space shards through {!Parallel} with
   each shard writing a disjoint slice of [dst].  Each shard pins a
   domain-private deep copy of the plan ({!pin}) and allocates its own
   4-slot scratch, so worker domains share no mutable structure and no
   hot cache lines — the shard setup is the only allocation; the
   per-element path allocates nothing. *)

module K = Kernel

let default_par_min = 1 lsl 14

(* ------------------------------------------------------------------ *)
(* Per-domain plan pinning.                                            *)
(* ------------------------------------------------------------------ *)

(* Keyed by physical equality of the source plan: plans are built once
   per (function, target, mode) and memoized (Funcs.Kernels), so the
   list stays short-lived and tiny.  DLS makes the cache per-domain:
   lookups never lock, and each domain's clone owns its tables. *)
let pinned : (K.plan * K.plan) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(** [pin p] is this domain's private clone of [p] (created on first
    use). *)
let pin (p : K.plan) =
  let cache = Domain.DLS.get pinned in
  match List.assq_opt p !cache with
  | Some c -> c
  | None ->
      let c = K.clone p in
      cache := (p, c) :: !cache;
      c

(* ------------------------------------------------------------------ *)
(* Sharded loops.                                                      *)
(* ------------------------------------------------------------------ *)

let run_sharded ?jobs ?(par_min = default_par_min) n body =
  if n < par_min then body ~lo:0 ~hi:n
  else ignore (Parallel.map_chunks ?jobs ~n (fun ~lo ~hi -> body ~lo ~hi))

(** [patterns p src dst] evaluates the plan over input patterns.
    Bit-identical to the scalar path at every job count.
    @raise Invalid_argument on length mismatch. *)
let patterns ?jobs ?par_min (p : K.plan) (src : int array) (dst : int array) =
  let n = Array.length src in
  if Array.length dst <> n then invalid_arg "Serve.Run.patterns: length mismatch";
  run_sharded ?jobs ?par_min n (fun ~lo ~hi ->
      let c = pin p in
      let s = K.scratch () in
      for i = lo to hi - 1 do
        Array.unsafe_set dst i (K.eval c s (Array.unsafe_get src i))
      done)

(* Per-shard tier counters merge under one lock at shard exit (a few
   dozen increments per run, never per element), so the hot loop counts
   into a shard-local array without contention or atomics. *)
let ctr_mu = Mutex.create ()

let merge_counters dst local =
  Mutex.lock ctr_mu;
  for i = 0 to K.n_counters - 1 do
    dst.(i) <- dst.(i) + local.(i)
  done;
  Mutex.unlock ctr_mu

(** [patterns_tiered p src dst ctr] is {!patterns} through the plan's
    progressive tier ({!Kernel.eval_tiered_tp}): bit-identical outputs,
    with per-tier call counts accumulated into [ctr] (a
    {!Kernel.counters}). *)
let patterns_tiered ?jobs ?par_min (p : K.plan) (src : int array) (dst : int array) ctr =
  let n = Array.length src in
  if Array.length dst <> n then invalid_arg "Serve.Run.patterns_tiered: length mismatch";
  run_sharded ?jobs ?par_min n (fun ~lo ~hi ->
      let c = pin p in
      let s = K.scratch () in
      let lc = K.counters () in
      (* The tier dispatch is hoisted out of the loop; the loop counts
         only its rare branches and the dominant tier is credited at
         shard end (K.derive_counts). *)
      (match c.K.tier with
      | Some tp ->
          for i = lo to hi - 1 do
            Array.unsafe_set dst i (K.eval_tiered_tp c tp s lc (Array.unsafe_get src i))
          done
      | None ->
          for i = lo to hi - 1 do
            Array.unsafe_set dst i (K.eval_counted c s lc (Array.unsafe_get src i))
          done);
      K.derive_counts ~tiered:(Option.is_some c.K.tier) ~processed:(hi - lo) lc;
      merge_counters ctr lc)
