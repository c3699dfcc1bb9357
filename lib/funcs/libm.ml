(* The generated math library.

   Functions are generated on first use (the paper ships pre-generated
   coefficient tables; we regenerate deterministically — same algorithms,
   same inputs, same tables every run) and cached per (function, target,
   rounding mode, quality, generator config).  The float32 entry points
   take and return doubles that are exact float32 values, mirroring how
   a C float function would be called from double-based test harnesses
   (§4.1). *)

module G = Rlibm.Generator

type quality = Draft | Quick | Full

let per_stratum = function Draft -> 2 | Quick -> 8 | Full -> 24

(* RLIBM-ALL enumeration for the float34 target: the exact embeddings of
   every bfloat16 and every float16 pattern (the formats the single
   to-odd table serves exhaustively, so their generation guarantee is
   total), plus the standard stratified float32 sample, deduplicated and
   sorted for a deterministic generation order. *)
let float34_enumeration quality =
  let module X = Specs.Float34 in
  let tbl = Hashtbl.create (1 lsl 18) in
  let add (module B : Fp.Representation.S) pats =
    Array.iter (fun p -> Hashtbl.replace tbl (X.of_base_double (B.to_double p)) ()) pats
  in
  add (module Fp.Bfloat16) Rlibm.Enumerate.exhaustive16;
  add (module Fp.Float16) Rlibm.Enumerate.exhaustive16;
  add (module Fp.Fp32) (Rlibm.Enumerate.stratified32 ~per_stratum:(per_stratum quality) ());
  let out = Array.make (Hashtbl.length tbl) 0 in
  let k = ref 0 in
  Hashtbl.iter
    (fun p () ->
      out.(!k) <- p;
      incr k)
    tbl;
  Array.sort compare out;
  out

(* Enumeration used to drive generation. *)
let enumeration (t : Specs.target) quality =
  let module T = (val t.repr) in
  if t.tname = "float34" then float34_enumeration quality
  else
    match T.bits with
    | 16 -> Rlibm.Enumerate.exhaustive16
    | 18 -> Rlibm.Enumerate.exhaustive ~bits:18
    | _ -> Rlibm.Enumerate.stratified32 ~per_stratum:(per_stratum quality) ()

let cache :
    (string * string * Fp.Rounding_mode.t * quality * Rlibm.Config.t, G.generated) Hashtbl.t =
  Hashtbl.create 32

let cache_mu = Mutex.create ()

(** Generate (or fetch) one function for one target.
    @raise Failure if generation fails — a spec bug, not a user error.

    The lock is held across generation: concurrent callers of the same
    function wait for one generation instead of racing two, and
    generation itself fans out internally via {!Parallel}.  The cache
    key includes the target's rounding mode, so [Specs.with_mode]
    re-targets of the same representation don't collide, and the whole
    effective config, since knobs such as [lp_warm] change the emitted
    tables. *)
let get ?(quality = Full) ?cfg (t : Specs.target) name =
  Mutex.protect cache_mu @@ fun () ->
  let key = (name, t.tname, t.mode, quality, Option.value cfg ~default:Rlibm.Config.default) in
  match Hashtbl.find_opt cache key with
  | Some g -> g
  | None -> (
      let spec = Specs.by_name name t in
      match G.generate ?cfg spec ~patterns:(enumeration t quality) with
      | Ok g ->
          Hashtbl.replace cache key g;
          g
      | Error msg -> failwith ("Libm.get: generation failed: " ^ msg))

(** Pattern-level entry point: apply the generated function. *)
let eval_pattern ?quality ?cfg t name pat = G.eval_pattern (get ?quality ?cfg t name) pat

(* ------------------------------------------------------------------ *)
(* Float32 convenience API (double in, double out, float32 values).    *)
(* ------------------------------------------------------------------ *)

module F32 = struct
  let fn ?quality name =
    let g = get ?quality Specs.float32 name in
    fun x -> G.eval_double g x

  let ln ?quality () = fn ?quality "ln"
  let log2 ?quality () = fn ?quality "log2"
  let log10 ?quality () = fn ?quality "log10"
  let exp ?quality () = fn ?quality "exp"
  let exp2 ?quality () = fn ?quality "exp2"
  let exp10 ?quality () = fn ?quality "exp10"
  let sinh ?quality () = fn ?quality "sinh"
  let cosh ?quality () = fn ?quality "cosh"
  let sinpi ?quality () = fn ?quality "sinpi"
  let cospi ?quality () = fn ?quality "cospi"
  let sin ?quality () = fn ?quality "sin"
  let cos ?quality () = fn ?quality "cos"
  let tan ?quality () = fn ?quality "tan"
end

(* ------------------------------------------------------------------ *)
(* Posit32 convenience API (pattern in, pattern out).                  *)
(* ------------------------------------------------------------------ *)

module P32 = struct
  let fn ?quality name =
    let g = get ?quality Specs.posit32 name in
    fun pat -> G.eval_pattern g pat
end
