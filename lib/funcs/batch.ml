(* Batch evaluation.

   The paper's §4.3 measures a vectorized harness (1024-input arrays)
   where Intel's compiler auto-vectorizes the comparators; RLIBM-32 is
   "almost as fast as vectorized code while producing correct results".
   OCaml has no auto-vectorizer, but the batch shape still pays: with
   the serving kernels (lib/serve) the whole per-element path runs over
   unboxed floats in flat tables — zero minor-heap allocation per
   element — instead of the spec's closure chain, which boxes a float at
   every call boundary.

   [eval_patterns] is the one batch entry point: it delegates the inner
   loop to {!Serve.Run.patterns} whenever the generated function
   flattens to a kernel ({!Kernels.of_generated}); functions with no
   kernel (posit targets, sin/cos/tan, non-standard term shapes) stay on
   the boxed closure path, kept below as [eval_patterns_boxed].

   Large batches shard across domains via {!Parallel}: each shard owns a
   disjoint [dst] slice.  The sharding threshold comes from
   {!Rlibm.Config} (RLIBM_BATCH_PAR_MIN); below it, domain spawn
   overhead beats the win. *)

module G = Rlibm.Generator

let par_min () = Rlibm.Config.default.batch_par_min

let run_sharded n shard_body =
  if n < par_min () then shard_body ~lo:0 ~hi:n
  else ignore (Parallel.map_chunks ~n (fun ~lo ~hi -> shard_body ~lo ~hi))

(** Boxed reference path: the compiled closure chain, shared by every
    worker domain (domain-local scratch, see {!Rlibm.Generator.compile}).
    Kept as the fallback for kernel-less targets and as the baseline the
    tests compare the kernel path against. *)
let eval_patterns_boxed (g : G.generated) (src : int array) (dst : int array) =
  if Array.length src <> Array.length dst then invalid_arg "Batch.eval_patterns: length mismatch";
  let f = G.compile g in
  run_sharded (Array.length src) (fun ~lo ~hi ->
      for i = lo to hi - 1 do
        dst.(i) <- f src.(i)
      done)

(** [eval_patterns g src dst] applies the generated function to every
    pattern of [src] into [dst].
    @raise Invalid_argument on length mismatch. *)
let eval_patterns (g : G.generated) (src : int array) (dst : int array) =
  match Kernels.of_generated g with
  | Some p ->
      if Array.length src <> Array.length dst then
        invalid_arg "Batch.eval_patterns: length mismatch";
      Serve.Run.patterns ~par_min:(par_min ()) p src dst
  | None -> eval_patterns_boxed g src dst
