(* Bridge from the generator's output to the serving kernel: flatten a
   {!Rlibm.Generator.generated} into a {!Serve.Kernel.plan}.

   The plan is a *data* rendering of exactly the structure the scalar
   path interprets — the spec's own kernel descriptor (whose family
   also drives the spec's reduction and compensation), the same
   coefficient rows — so kernel evaluation is bit-identical by
   construction, with the scalar path itself installed as the plan's
   fallback for special and non-finite inputs.

   Not every generated function can be flattened: posits have no IEEE
   field decode, sin/cos/tan carry no descriptor, and a component whose
   term pattern falls outside the four shipped Horner shapes has no
   monomorphic kernel.  [of_generated]
   returns [None] for those and Funcs.Batch keeps using the boxed
   closure path. *)

module G = Rlibm.Generator
module K = Serve.Kernel
module I = Fp.Ieee

let shape_of_terms = function
  | [| 0; 1; 2; 3 |] -> Some K.S0123
  | [| 1; 2; 3 |] -> Some K.S123
  | [| 1; 3; 5 |] -> Some K.S135
  | [| 0; 2; 4 |] -> Some K.S024
  | _ -> None

let group_of (g : Rlibm.Piecewise.group) nt : K.pgroup =
  let sch = g.scheme in
  let hi32 b = Int64.to_int (Int64.shift_right_logical b 32) in
  let lo32 b = Int64.to_int (Int64.logand b 0xFFFF_FFFFL) in
  {
    K.nbits = sch.nbits;
    shift = sch.shift;
    lo_hi = hi32 sch.lo_bits;
    lo_lo = lo32 sch.lo_bits;
    hi_hi = hi32 sch.hi_bits;
    hi_lo = lo32 sch.hi_bits;
    nt;
    coeffs = Array.copy g.coeffs;
  }

let piece_of (pw : Rlibm.Piecewise.t) : K.piece option =
  match shape_of_terms pw.terms with
  | None -> None
  | Some shape ->
      let nt = Array.length pw.terms in
      Some
        {
          K.shape;
          neg = Option.map (fun g -> group_of g nt) pw.neg;
          pos = Option.map (fun g -> group_of g nt) pw.pos;
        }

(* Lower the generator's progressive certificates into the kernel's
   plain tier data.  Only an exhaustive generation's certificates are
   sound, and the tier is all-or-nothing across pieces (mirroring
   Rlibm.Verifier.classify): any piece without a certified serving
   prefix disables the whole tier, so a tiered plan's fast path always
   means "every component served its prefix". *)
let lower_tpiece (g : G.generated) (p : Rlibm.Prog.t) i k : K.tpiece =
  let pc = p.Rlibm.Prog.pieces.(i) in
  let pw = g.pieces.(i) in
  let nt = pc.Rlibm.Prog.nt in
  (* Pure-miss dummy: one all-NaN row, so even a stray consult escalates
     to the full polynomial instead of reading out of bounds. *)
  let dummy () = { K.t_shift = 0; t_mask = 0; t_coeffs = Array.make k Float.nan } in
  let cert (grp : Rlibm.Piecewise.group option) (carr : Rlibm.Prog.cert array) =
    match grp with
    | None ->
        (* Sign group absent: never consulted — the kernel's group test
           short-circuits first. *)
        dummy ()
    | Some grp ->
        if k - 1 >= Array.length carr then dummy ()
        else begin
          (* Densify: one prefix row per *extended* certificate bucket,
             copied bit-identical from the full table when the bucket is
             certified and all-NaN (the kernel's miss marker) when not.
             This trades 2^ext-way row replication for a fast path with
             no separate bitset probe. *)
          let c = carr.(k - 1) in
          let ext = c.Rlibm.Prog.ext in
          let sch = grp.Rlibm.Piecewise.scheme in
          let nb = 1 lsl (sch.Rlibm.Splitting.nbits + ext) in
          let tcf = Array.make (nb * k) Float.nan in
          for e = 0 to nb - 1 do
            if Rlibm.Prog.bit_get c.Rlibm.Prog.bits e then begin
              let row = (e lsr ext) * nt in
              for j = 0 to k - 1 do
                tcf.((e * k) + j) <- grp.Rlibm.Piecewise.coeffs.(row + j)
              done
            end
          done;
          { K.t_shift = sch.Rlibm.Splitting.shift - ext; t_mask = nb - 1; t_coeffs = tcf }
        end
  in
  {
    K.tk = k;
    tneg = cert pw.Rlibm.Piecewise.neg pc.Rlibm.Prog.neg;
    tpos = cert pw.Rlibm.Piecewise.pos pc.Rlibm.Prog.pos;
  }

let tier_of (g : G.generated) : K.tpiece array option =
  match g.prog with
  | None -> None
  | Some p ->
      let n = Array.length g.pieces in
      let tiered i = p.Rlibm.Prog.serve_k.(i) < p.Rlibm.Prog.pieces.(i).Rlibm.Prog.nt in
      if not (p.Rlibm.Prog.exhaustive && n > 0 && Array.for_all tiered (Array.init n Fun.id))
      then None
      else Some (Array.init n (fun i -> lower_tpiece g p i p.Rlibm.Prog.serve_k.(i)))

(* The spec's kernel descriptor supplies the family (copied: the plan
   owns its tables, and Serve.Run clones them again per domain), the
   special probe and the IEEE decode. *)
let build (g : G.generated) : K.plan option =
  match g.spec.kernel with
  | None | Some { fmt = None; _ } -> None
  | Some { family; check; fmt = Some fmt } ->
      let pieces_opt = Array.map piece_of g.pieces in
      if Array.exists Option.is_none pieces_opt then None
      else begin
        let module T = (val g.spec.repr) in
        let hw32 = fmt.eb = 8 && fmt.mb = 23 in
        Some
          {
            K.name = g.spec.name;
            tname = T.name;
            mode = g.spec.mode;
            width = I.width fmt;
            hw32;
            hw_rne = hw32 && g.spec.mode = Fp.Rounding_mode.Rne;
            i_mb = fmt.mb;
            i_emask = I.exp_mask fmt;
            i_mmask = I.mant_mask fmt;
            i_sbit = I.sign_bit fmt;
            i_dexp_off = 1023 - I.bias fmt;
            i_sub_scale = Float.ldexp 1.0 (I.emin fmt - fmt.mb);
            check;
            family = K.clone_family family;
            pieces = Array.map Option.get pieces_opt;
            tier = tier_of g;
            o_mb = fmt.mb;
            o_mmask = I.mant_mask fmt;
            o_sbit = I.sign_bit fmt;
            o_bias = I.bias fmt;
            o_emin = I.emin fmt;
            o_emax = I.emax fmt;
            o_nan = I.nan_pattern fmt;
            o_inf_pos = I.inf_pattern fmt 1;
            o_inf_neg = I.inf_pattern fmt (-1);
            o_maxf_pos = I.max_finite_pattern fmt 1;
            o_maxf_neg = I.max_finite_pattern fmt (-1);
            fallback = (fun pat -> G.eval_pattern g pat);
          }
      end

(* Memoized per generated value (physically: Libm.get caches and reuses
   the generated record, so assq hits after the first call). *)
let cache : (G.generated * K.plan option) list ref = ref []
let cache_mu = Mutex.create ()

(** [of_generated g] is the serving plan for [g], or [None] when the
    function has no monomorphic kernel (posit targets, unknown term
    shapes) — callers then stay on the boxed closure path. *)
let of_generated (g : G.generated) : K.plan option =
  Mutex.protect cache_mu @@ fun () ->
  match List.assq_opt g !cache with
  | Some p -> p
  | None ->
      let p = build g in
      cache := (g, p) :: !cache;
      p

(** [plan ?quality ?cfg t name] generates (or fetches) the function and
    flattens it, raising on targets with no kernel. *)
let plan ?quality ?cfg (t : Specs.target) name =
  match of_generated (Libm.get ?quality ?cfg t name) with
  | Some p -> p
  | None -> invalid_arg ("Kernels.plan: no serving kernel for " ^ name ^ " on " ^ t.tname)

(** [plan_opt ?quality ?cfg t name] is [plan] without the raise. *)
let plan_opt ?quality ?cfg (t : Specs.target) name =
  of_generated (Libm.get ?quality ?cfg t name)
