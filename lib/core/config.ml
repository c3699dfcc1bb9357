(* Generator knobs.  The paper's prototype used a 50k-constraint sample
   cap and SoPlex with a five-minute limit; our exact-rational simplex
   is pure OCaml, so the defaults are scaled to keep one function's
   generation in seconds while exercising every algorithm unchanged. *)

type t = {
  sample_init : int;  (* initial uniform sample per sub-domain *)
  sample_narrow : int;  (* extra highly-constrained (narrowest-interval) samples *)
  sample_cap : int;  (* Algorithm 4's threshold: give up past this *)
  refine_tries : int;  (* search-and-refine iterations for coefficient rounding *)
  cex_rounds : int;  (* counterexample loop iterations *)
  max_split_bits : int;  (* deepest sub-domain split: 2^max_split_bits tables *)
  start_split_bits : int;  (* skip straight to this split depth (0 = try single poly) *)
  lp_warm : bool;
      (* Warm-start the LPs of the counterexample loop from per-sub-domain
         Polyfit sessions (dual-simplex basis repair + sibling basis reuse
         after splits).  Same sat/unsat answers as cold, but possibly
         different coefficient vertices — so the deterministic cold path
         stays the default; flip on via RLIBM_LP_WARM=1 or generate
         --lp-warm for speed. *)
  oracle_cache_dir : string option;
      (* Directory of the persistent oracle cache (Sweep.Oracle_cache):
         the generator's enumeration pass records every correctly-rounded
         result it settles and re-reads it on the next run instead of
         re-running Ziv's loop.  Off by default (results are identical
         either way); enable via RLIBM_ORACLE_CACHE=<dir>. *)
  batch_par_min : int;
      (* Smallest batch that shards across domains (Funcs.Batch and the
         serving pipelines); below it the loop runs inline on the
         calling domain.  Override via RLIBM_BATCH_PAR_MIN. *)
  progressive : bool;
      (* Progressive polynomials (RLIBM-PROG): after the full fit, try to
         enrich each sub-domain so a degree-k prefix of the coefficient
         vector already satisfies most rounding intervals, and certify
         per-prefix coverage bitsets next to the tables.  Off by default —
         the emitted tables are then byte-identical to the classic path;
         flip on via RLIBM_PROG=1 or generate --prog. *)
  prog_cert_bits : int;
      (* Extra index bits per certificate bucket beyond the sub-domain
         split: certificates cover 2^(nbits + prog_cert_bits) buckets, so
         a handful of hard inputs only poison their small bucket, not the
         whole sub-domain. *)
  prog_min_coverage : float;
      (* Smallest input-weighted coverage at which a prefix tier is worth
         serving; below it the runtime keeps the full polynomial. *)
}

(* Environment overrides, read through [lookup] ([Sys.getenv_opt] for
   {!default}; tests pass a fake).  An unset or blank variable keeps the
   built-in value; a set but unusable one is refused, naming the
   variable and its value, instead of silently falling back. *)
let of_env lookup =
  let value var =
    match lookup var with
    | Some v when String.trim v <> "" -> Some (String.trim v)
    | _ -> None
  in
  let refuse var v want = invalid_arg (Printf.sprintf "%s=%S: expected %s" var v want) in
  let flag var =
    match value var with
    | None -> false
    | Some v -> (
        match String.lowercase_ascii v with
        | "1" | "true" -> true
        | "0" | "false" -> false
        | _ -> refuse var v "1/true or 0/false")
  in
  {
    sample_init = 24;
    sample_narrow = 12;
    sample_cap = 2000;
    refine_tries = 40;
    cex_rounds = 40;
    max_split_bits = 10;
    start_split_bits = 0;
    lp_warm = flag "RLIBM_LP_WARM";
    oracle_cache_dir = value "RLIBM_ORACLE_CACHE";
    batch_par_min =
      (match value "RLIBM_BATCH_PAR_MIN" with
      | None -> 1 lsl 14
      | Some v -> (
          match int_of_string_opt v with
          | Some n when n >= 0 -> n
          | _ -> refuse "RLIBM_BATCH_PAR_MIN" v "a non-negative integer"));
    progressive = flag "RLIBM_PROG";
    prog_cert_bits = 3;
    prog_min_coverage = 0.90;
  }

let default = of_env Sys.getenv_opt
