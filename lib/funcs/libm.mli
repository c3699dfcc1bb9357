(** The generated math library.

    Functions are generated deterministically on first use (the paper
    ships pre-generated coefficient tables; regeneration here is
    deterministic: same algorithms, same enumeration, same tables every
    run) and cached per (function, target, rounding mode, quality,
    generator config). *)

type quality =
  | Draft
      (** 2 patterns per stratum: for benchmarks — the run-time code path
          (tables + Horner + compensation) is identical at every quality,
          only the constraint coverage differs *)
  | Quick  (** 8 patterns per stratum: the correctness-experiment default *)
  | Full  (** 24 patterns per stratum: 3x the enumeration *)

(** The input enumeration a quality level drives generation with
    (exhaustive for 16-bit targets regardless of quality). *)
val enumeration : Specs.target -> quality -> int array

(** [get ?quality ?cfg target name] generates (or fetches) one function.
    Names: the paper's ten — ["ln"], ["log2"], ["log10"], ["exp"],
    ["exp2"], ["exp10"], ["sinh"], ["cosh"], ["sinpi"], ["cospi"] — plus
    the extensions ["tanh"], ["expm1"], ["log1p"] and the full-range
    radian trig family ["sin"], ["cos"], ["tan"] (Payne–Hanek
    reduction; IEEE targets only).
    @raise Failure when generation fails (a spec bug, not a user error).
    @raise Invalid_argument on an unknown name. *)
val get :
  ?quality:quality -> ?cfg:Rlibm.Config.t -> Specs.target -> string -> Rlibm.Generator.generated

(** [eval_pattern target name pat]: one-call convenience around {!get}
    and {!Rlibm.Generator.eval_pattern}. *)
val eval_pattern : ?quality:quality -> ?cfg:Rlibm.Config.t -> Specs.target -> string -> int -> int

(** Float32 convenience API: double in, double out, float32 values. *)
module F32 : sig
  (** [fn name] generates on first call and returns the evaluator. *)
  val fn : ?quality:quality -> string -> float -> float

  val ln : ?quality:quality -> unit -> float -> float
  val log2 : ?quality:quality -> unit -> float -> float
  val log10 : ?quality:quality -> unit -> float -> float
  val exp : ?quality:quality -> unit -> float -> float
  val exp2 : ?quality:quality -> unit -> float -> float
  val exp10 : ?quality:quality -> unit -> float -> float
  val sinh : ?quality:quality -> unit -> float -> float
  val cosh : ?quality:quality -> unit -> float -> float
  val sinpi : ?quality:quality -> unit -> float -> float
  val cospi : ?quality:quality -> unit -> float -> float
  val sin : ?quality:quality -> unit -> float -> float
  val cos : ?quality:quality -> unit -> float -> float
  val tan : ?quality:quality -> unit -> float -> float
end

(** Posit32 convenience API: patterns in, patterns out. *)
module P32 : sig
  val fn : ?quality:quality -> string -> int -> int
end
