(* Domain-based work sharding for the embarrassingly parallel passes of
   the generator pipeline (oracle enumeration, Algorithm 4's Check, the
   final validation replay, batch evaluation).

   Determinism contract: shard boundaries depend ONLY on the item count
   [n] — never on the job count — and per-shard results are merged in
   shard order on the calling domain.  Any fold whose combine is applied
   left-to-right over the shard results therefore produces bit-identical
   output at every job count, including jobs=1 (which runs the same
   shards sequentially, spawning no domain at all).  Work *scheduling*
   (which domain runs which shard) is free to race; work *results* never
   do.

   Worker closures must not touch shared mutable state.  The repo-wide
   conventions that make the hot paths safe:
   - one-shot caches go through {!Once} (domain-safe lazy);
   - keyed caches (oracle constants, libm cache) are mutex-protected;
   - scratch buffers are allocated per shard, never captured. *)

(* ------------------------------------------------------------------ *)
(* Job-count resolution: RLIBM_JOBS env, CLI override, or the runtime's
   recommendation.                                                     *)
(* ------------------------------------------------------------------ *)

let override = ref None

(** CLI knob: force the job count for every subsequent run. *)
let set_jobs j = override := Some (Stdlib.max 1 j)

(** RLIBM_JOBS, read through [lookup] ([Sys.getenv_opt] for {!jobs};
    tests pass a fake).  Unset or blank is [None]; any other value must
    be an integer >= 1.
    @raise Invalid_argument naming the variable and its value otherwise,
    instead of silently falling back (the Rlibm.Config.of_env rule). *)
let jobs_of_env lookup =
  match lookup "RLIBM_JOBS" with
  | Some s when String.trim s <> "" -> (
      let v = String.trim s in
      match int_of_string_opt v with
      | Some j when j >= 1 -> Some j
      | _ -> invalid_arg (Printf.sprintf "RLIBM_JOBS=%S: expected an integer >= 1" v))
  | _ -> None

let jobs () =
  match !override with
  | Some j -> j
  | None -> (
      match jobs_of_env Sys.getenv_opt with
      | Some j -> j
      | None -> Domain.recommended_domain_count ())

(* ------------------------------------------------------------------ *)
(* Deterministic shards.                                               *)
(* ------------------------------------------------------------------ *)

(* Enough shards that work-stealing balances the very uneven per-input
   cost (Ziv-loop precision escalation), few enough that per-shard
   overhead stays invisible next to one oracle call. *)
let target_shards = 64

(** Shard boundaries for [n] items: an array of [lo, hi) ranges covering
    [0, n) in order.  A function of [n] alone. *)
let shards n =
  if n <= 0 then [||]
  else begin
    let ns = Stdlib.min n target_shards in
    Array.init ns (fun i -> (i * n / ns, (i + 1) * n / ns))
  end

(* ------------------------------------------------------------------ *)
(* Per-run timing.                                                     *)
(* ------------------------------------------------------------------ *)

type stats = {
  jobs : int;
  n_items : int;
  n_shards : int;
  wall_seconds : float;
  shard_seconds : float array;  (* indexed by shard *)
}

let last : stats option ref = ref None

(** Timing of the most recent run on this domain (runs never nest). *)
let last_stats () = !last

(* ------------------------------------------------------------------ *)
(* The runner.                                                         *)
(* ------------------------------------------------------------------ *)

(* Apply [f] to every shard of [0, n), returning per-shard results in
   shard order.  Exceptions re-raise deterministically: the one from the
   lowest-numbered failing shard wins, whatever domain hit it first. *)
let run ?jobs:j ~n (f : lo:int -> hi:int -> 'a) : 'a array =
  let sh = shards n in
  let ns = Array.length sh in
  let j = Stdlib.max 1 (match j with Some j -> j | None -> jobs ()) in
  let j = Stdlib.min j (Stdlib.max 1 ns) in
  let times = Array.make ns 0.0 in
  let t0 = Unix.gettimeofday () in
  let out : 'a option array = Array.make ns None in
  let failed : exn option array = Array.make ns None in
  let run_shard i =
    let lo, hi = sh.(i) in
    let s0 = Unix.gettimeofday () in
    (match f ~lo ~hi with
    | r -> out.(i) <- Some r
    | exception e -> failed.(i) <- Some e);
    times.(i) <- Unix.gettimeofday () -. s0
  in
  if j = 1 then
    for i = 0 to ns - 1 do
      run_shard i
    done
  else begin
    let next = Atomic.make 0 in
    let work () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= ns then continue := false else run_shard i
      done
    in
    let doms = Array.init (j - 1) (fun _ -> Domain.spawn work) in
    work ();
    Array.iter Domain.join doms
  end;
  last := Some { jobs = j; n_items = n; n_shards = ns; wall_seconds = Unix.gettimeofday () -. t0; shard_seconds = times };
  Array.iter (function Some e -> raise e | None -> ()) failed;
  Array.map (function Some r -> r | None -> assert false) out

(** [map_chunks ?jobs ~n f] applies [f ~lo ~hi] to every deterministic
    shard of [0, n) and returns the results in shard order. *)
let map_chunks ?jobs ~n f = run ?jobs ~n f

(** [fold_chunks ?jobs ~n ~combine ~init chunk] folds the per-shard
    results left-to-right in shard order; [combine] need not be
    commutative for the result to be identical at every job count. *)
let fold_chunks ?jobs ~n ~combine ~init chunk =
  Array.fold_left combine init (run ?jobs ~n chunk)

(** [find_violation ?jobs ~n pred] is the smallest [i] in [0, n) with
    [pred i], or [None] — canonical lowest-input-first, at every job
    count.  Shards past an already-found violation are skipped. *)
let find_violation ?jobs ~n pred =
  let best = Atomic.make max_int in
  let chunk ~lo ~hi =
    if lo >= Atomic.get best then None
    else begin
      let found = ref None in
      let i = ref lo in
      while !found = None && !i < hi do
        if pred !i then found := Some !i;
        incr i
      done;
      (match !found with
      | Some v ->
          let rec lower () =
            let b = Atomic.get best in
            if v < b && not (Atomic.compare_and_set best b v) then lower ()
          in
          lower ()
      | None -> ());
      !found
    end
  in
  Array.fold_left
    (fun acc r -> match acc with Some _ -> acc | None -> r)
    None (run ?jobs ~n chunk)

(* ------------------------------------------------------------------ *)
(* Domain-safe one-shot initialization (a [lazy] that may be forced     *)
(* from any domain).                                                   *)
(* ------------------------------------------------------------------ *)

module Once = struct
  type 'a t = { v : 'a option Atomic.t; mu : Mutex.t; f : unit -> 'a }

  let make f = { v = Atomic.make None; mu = Mutex.create (); f }

  (* Double-checked: the fast path is one atomic load, so table lookups
     in the runtime hot loops cost the same as a forced [lazy]. *)
  let get t =
    match Atomic.get t.v with
    | Some x -> x
    | None ->
        Mutex.protect t.mu (fun () ->
            match Atomic.get t.v with
            | Some x -> x
            | None ->
                let x = t.f () in
                Atomic.set t.v (Some x);
                x)
end
