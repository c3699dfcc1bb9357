(* Batch drivers over {!Kernel} plans: plain-array and Bigarray
   pipelines, per-domain plan pinning, and the SLO measurement used by
   bin/serve_cli.

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
    progressive tier ({!Kernel.eval_tiered}): bit-identical outputs,
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

(* The double -> pattern leg of the doubles pipeline always rounds at
   RNE (Representation.S.of_double's default, which is what the boxed
   Funcs.Batch.eval_doubles used); float32 takes the hardware cast
   exactly as Fp.Fp32 does.  The pattern -> double leg replicates the
   format's to_double (value-exact on finite patterns; NaN patterns
   produce Float.nan for the generic formats, the payload-exact
   hardware widen for float32 — again matching the boxed path). *)
let doubles ?jobs ?par_min (p : K.plan) (src : float array) (dst : float array) =
  let n = Array.length src in
  if Array.length dst <> n then invalid_arg "Serve.Run.doubles: length mismatch";
  run_sharded ?jobs ?par_min n (fun ~lo ~hi ->
      let c = pin p in
      let s = K.scratch () in
      if c.K.hw32 then
        for i = lo to hi - 1 do
          let x = Array.unsafe_get src i in
          let pat = Int32.to_int (Int32.bits_of_float x) land 0xFFFF_FFFF in
          Array.unsafe_set dst i (Int32.float_of_bits (Int32.of_int (K.eval c s pat)))
        done
      else
        for i = lo to hi - 1 do
          let x = Array.unsafe_get src i in
          let xb = Int64.bits_of_float x in
          let pat =
            K.round_bits c Fp.Rounding_mode.Rne
              (Int64.to_int (Int64.shift_right_logical xb 32))
              (Int64.to_int (Int64.logand xb 0xFFFF_FFFFL))
          in
          let out = K.eval c s pat in
          let e = (out lsr c.K.i_mb) land c.K.i_emask in
          let m = out land c.K.i_mmask in
          let neg = out land c.K.i_sbit <> 0 in
          if e = c.K.i_emask then
            Array.unsafe_set dst i
              (if m <> 0 then Float.nan
               else if neg then Float.neg_infinity
               else Float.infinity)
          else begin
            let mag =
              if e = 0 then float_of_int m *. c.K.i_sub_scale
              else
                Int64.float_of_bits
                  (Int64.logor
                     (Int64.shift_left (Int64.of_int (e + c.K.i_dexp_off)) 52)
                     (Int64.shift_left (Int64.of_int m) (52 - c.K.i_mb)))
            in
            Array.unsafe_set dst i (if neg then -.mag else mag)
          end
        done)

(* ------------------------------------------------------------------ *)
(* Bigarray pipelines: the preallocated serving buffers.  Int32 cells   *)
(* hold patterns (<= 34 bits stored mod 2^32, masked back on read — no  *)
(* instantiated format exceeds 34 bits, and the 34-bit extended targets *)
(* are pattern-only clients); float64 cells hold exact target values.   *)
(* ------------------------------------------------------------------ *)

type i32buf = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t
type f64buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let create_i32 n : i32buf = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n
let create_f64 n : f64buf = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

(** [ba32 p src dst] evaluates over int32 pattern buffers.  Only valid
    for plans whose width is at most 32 (every shipped format except the
    extended 34-bit target; those use {!patterns} or {!ba64}). *)
let ba32 ?jobs ?par_min (p : K.plan) (src : i32buf) (out : i32buf) =
  let n = Bigarray.Array1.dim src in
  if Bigarray.Array1.dim out <> n then invalid_arg "Serve.Run.ba32: length mismatch";
  if p.K.width > 32 then invalid_arg "Serve.Run.ba32: pattern width exceeds 32 bits";
  run_sharded ?jobs ?par_min n (fun ~lo ~hi ->
      let c = pin p in
      let s = K.scratch () in
      for i = lo to hi - 1 do
        let pat = Int32.to_int (Bigarray.Array1.unsafe_get src i) land 0xFFFF_FFFF in
        Bigarray.Array1.unsafe_set out i (Int32.of_int (K.eval c s pat))
      done)

(** [ba32_tiered p src dst ctr] is {!ba32} through the progressive tier:
    bit-identical outputs, per-tier call counts accumulated into [ctr].
    This is the serving loop {!measure} times, so the counter increments
    are part of the measured path (a served call always pays for its own
    accounting). *)
let ba32_tiered ?jobs ?par_min (p : K.plan) (src : i32buf) (out : i32buf) ctr =
  let n = Bigarray.Array1.dim src in
  if Bigarray.Array1.dim out <> n then invalid_arg "Serve.Run.ba32_tiered: length mismatch";
  if p.K.width > 32 then invalid_arg "Serve.Run.ba32_tiered: pattern width exceeds 32 bits";
  run_sharded ?jobs ?par_min n (fun ~lo ~hi ->
      let c = pin p in
      let s = K.scratch () in
      let lc = K.counters () in
      (match c.K.tier with
      | Some tp ->
          for i = lo to hi - 1 do
            let pat = Int32.to_int (Bigarray.Array1.unsafe_get src i) land 0xFFFF_FFFF in
            Bigarray.Array1.unsafe_set out i (Int32.of_int (K.eval_tiered_tp c tp s lc pat))
          done
      | None ->
          for i = lo to hi - 1 do
            let pat = Int32.to_int (Bigarray.Array1.unsafe_get src i) land 0xFFFF_FFFF in
            Bigarray.Array1.unsafe_set out i (Int32.of_int (K.eval_counted c s lc pat))
          done);
      K.derive_counts ~tiered:(Option.is_some c.K.tier) ~processed:(hi - lo) lc;
      merge_counters ctr lc)

(** [ba64 p src dst] evaluates over float64 value buffers (the
    double-in/double-out serving shape). *)
let ba64 ?jobs ?par_min (p : K.plan) (src : f64buf) (dst : f64buf) =
  let n = Bigarray.Array1.dim src in
  if Bigarray.Array1.dim dst <> n then invalid_arg "Serve.Run.ba64: length mismatch";
  run_sharded ?jobs ?par_min n (fun ~lo ~hi ->
      let c = pin p in
      let s = K.scratch () in
      if c.K.hw32 then
        for i = lo to hi - 1 do
          let x = Bigarray.Array1.unsafe_get src i in
          let pat = Int32.to_int (Int32.bits_of_float x) land 0xFFFF_FFFF in
          Bigarray.Array1.unsafe_set dst i (Int32.float_of_bits (Int32.of_int (K.eval c s pat)))
        done
      else
        for i = lo to hi - 1 do
          let x = Bigarray.Array1.unsafe_get src i in
          let xb = Int64.bits_of_float x in
          let pat =
            K.round_bits c Fp.Rounding_mode.Rne
              (Int64.to_int (Int64.shift_right_logical xb 32))
              (Int64.to_int (Int64.logand xb 0xFFFF_FFFFL))
          in
          let out = K.eval c s pat in
          let e = (out lsr c.K.i_mb) land c.K.i_emask in
          let m = out land c.K.i_mmask in
          let neg = out land c.K.i_sbit <> 0 in
          if e = c.K.i_emask then
            Bigarray.Array1.unsafe_set dst i
              (if m <> 0 then Float.nan
               else if neg then Float.neg_infinity
               else Float.infinity)
          else begin
            let mag =
              if e = 0 then float_of_int m *. c.K.i_sub_scale
              else
                Int64.float_of_bits
                  (Int64.logor
                     (Int64.shift_left (Int64.of_int (e + c.K.i_dexp_off)) 52)
                     (Int64.shift_left (Int64.of_int m) (52 - c.K.i_mb)))
            in
            Bigarray.Array1.unsafe_set dst i (if neg then -.mag else mag)
          end
        done)

(* ------------------------------------------------------------------ *)
(* Bit-identity verification and SLO measurement.                      *)
(* ------------------------------------------------------------------ *)

(** [verify p src] replays every input pattern through the kernel and
    the plan's scalar fallback (which IS the generated scalar path) and
    returns the first mismatching input pattern, or [None].  Plans
    carrying a progressive tier also replay the tiered path — the tier
    actually selected at serving time — against the same fallback. *)
let verify (p : K.plan) (src : int array) =
  let s = K.scratch () in
  let c = pin p in
  let ctr = K.counters () in
  let tiered = Option.is_some c.K.tier in
  let bad = ref None in
  let i = ref 0 in
  let n = Array.length src in
  while !bad = None && !i < n do
    let pat = src.(!i) in
    let want = p.K.fallback pat in
    if K.eval c s pat <> want then bad := Some pat
    else if tiered && K.eval_tiered c s ctr pat <> want then bad := Some pat;
    incr i
  done;
  !bad

type slo = {
  n : int;  (* calls per batch — diffs across batch sizes are meaningless *)
  batches : int;
  calls_per_sec : float;
  p50_ns : float;  (* per-call (micro-block sampled), NOT per-batch means *)
  p99_ns : float;
  tier_prefix : int;  (* calls served by the certified prefix, all batches *)
  tier_full : int;  (* full-polynomial evaluations (miss, or no tier) *)
  tier_fallback : int;  (* scalar fallbacks (special / non-finite) *)
}

(* Percentile over a sorted sample array (nearest-rank). *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else begin
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    let rank = if rank < 1 then 1 else if rank > n then n else rank in
    sorted.(rank - 1)
  end

(* Latency percentiles sample micro-blocks of this many calls on a
   single domain: a timestamp pair per individual ~10ns call would
   measure the clock, not the kernel, while a whole-batch mean (the old
   behaviour) collapses the distribution to one sample per batch and
   hides every tail.  512 calls amortize the clock reads to well under a
   nanosecond per call while keeping block-to-block spread visible —
   and keeps each block a few microseconds long, comfortably above the
   clock's microsecond granularity. *)
let sample_block = 512

(** [measure ?jobs ?par_min p src ~batches] replays the pattern workload
    [src] through the tiered int32 Bigarray pipeline [batches] times for
    throughput, then samples per-call latency in {!sample_block}-call
    micro-blocks on one domain for the percentiles — [p50_ns]/[p99_ns]
    are over per-call samples, not per-batch means, so they move when
    the tail moves.  One warm-up batch runs first so table pinning and
    buffer faulting stay out of the numbers; tier counters cover the
    timed batches only (warm-up excluded). *)
let measure ?jobs ?par_min (p : K.plan) (src : int array) ~batches =
  let n = Array.length src in
  let inb = create_i32 n and outb = create_i32 n in
  for i = 0 to n - 1 do
    Bigarray.Array1.set inb i (Int32.of_int src.(i))
  done;
  let ctr = K.counters () in
  ba32_tiered ?jobs ?par_min p inb outb ctr;
  Array.fill ctr 0 K.n_counters 0;
  let total = ref 0.0 in
  for _b = 0 to batches - 1 do
    let t0 = Unix.gettimeofday () in
    ba32_tiered ?jobs ?par_min p inb outb ctr;
    total := !total +. (Unix.gettimeofday () -. t0)
  done;
  let nblocks = Stdlib.max 1 (n / sample_block) in
  let samples = Array.make nblocks 0.0 in
  let c = pin p in
  let s = K.scratch () in
  let sctr = K.counters () in
  for b = 0 to nblocks - 1 do
    let lo = b * sample_block in
    let hi = Stdlib.min n (lo + sample_block) in
    let t0 = Unix.gettimeofday () in
    (match c.K.tier with
    | Some tp ->
        for i = lo to hi - 1 do
          let pat = Int32.to_int (Bigarray.Array1.unsafe_get inb i) land 0xFFFF_FFFF in
          Bigarray.Array1.unsafe_set outb i (Int32.of_int (K.eval_tiered_tp c tp s sctr pat))
        done
    | None ->
        for i = lo to hi - 1 do
          let pat = Int32.to_int (Bigarray.Array1.unsafe_get inb i) land 0xFFFF_FFFF in
          Bigarray.Array1.unsafe_set outb i (Int32.of_int (K.eval_counted c s sctr pat))
        done);
    samples.(b) <- (Unix.gettimeofday () -. t0) /. float_of_int (hi - lo) *. 1e9
  done;
  Array.sort compare samples;
  {
    n;
    batches;
    calls_per_sec = float_of_int (n * batches) /. !total;
    p50_ns = percentile samples 0.50;
    p99_ns = percentile samples 0.99;
    tier_prefix = ctr.(K.c_prefix);
    tier_full = ctr.(K.c_full);
    tier_fallback = ctr.(K.c_fallback);
  }
