(* Per-layer probes of the traced run.  Each probe times calls into one
   layer's public functions over the workload's own batches, one span
   per loop per batch; nothing inside the library is instrumented.

   The serving breakdown is an ablation: the same batch goes through
   [Kernel.is_fast] (decode + specials), then [Kernel.stage1] (+ range
   reduction), then [stage1] + [eval_piece] (+ Horner), then [stage1] +
   [eval_piece] + [compose] (+ compensation and rounding).  A layer's
   cost is one loop's time minus the previous loop's, so no timer sits
   inside a ~25 ns call. *)

module H = Suite_harness
module W = Workload
module G = Rlibm.Generator
module K = Serve.Kernel

let passes = 12

(* [run_loops] times every loop over every batch, [passes] times,
   interleaving the loops batch by batch so they see the same cache
   state.  A loop returns how many elements it processed.  Result: per
   loop name, median pass time / elements per pass; a loop that
   processed nothing has no entry. *)
let run_loops tr ~workload ~label ~nbatches loops =
  let nl = Array.length loops in
  let tot = Array.make_matrix nl passes 0.0 and cnt = Array.make nl 0 in
  let names = Array.map (fun (name, _) -> name ^ ":" ^ label) loops in
  for p = 0 to passes - 1 do
    let trace = Printf.sprintf "%s/%s/pass%d" workload label p in
    let pid = W.open_span tr ~parent:(-1) ~trace ("pass:" ^ label) in
    for b = 0 to nbatches - 1 do
      Array.iteri
        (fun l (_, f) ->
          let a = W.now () in
          let c = f b in
          let e = W.now () in
          tot.(l).(p) <- tot.(l).(p) +. float_of_int (e - a);
          if p = 0 then cnt.(l) <- cnt.(l) + c;
          ignore (W.span tr ~parent:pid ~trace ~name:names.(l) ~start_ns:a ~end_ns:e ~count:c))
        loops
    done;
    W.close_span tr pid ~count:nbatches
  done;
  let h = Hashtbl.create 16 in
  Array.iteri
    (fun l (name, _) ->
      if cnt.(l) > 0 then Hashtbl.replace h name (H.Summary.median tot.(l) /. float_of_int cnt.(l)))
    loops;
  h

(* Loop results land here, so every timed call's result is used. *)
let sink = ref 0
let keep x = sink := !sink lxor x

(* Flat table size of a plan: coefficient rows, family tables and
   progressive-tier rows, 8 bytes per double. *)
let plan_bytes (p : K.plan) =
  let grp = function None -> 0 | Some (g : K.pgroup) -> Array.length g.coeffs in
  let pieces = Array.fold_left (fun acc (pc : K.piece) -> acc + grp pc.neg + grp pc.pos) 0 p.pieces in
  let fam =
    match p.family with
    | K.Log f -> Array.length f.f_tbl
    | K.Exp f -> Array.length f.t2
    | K.Tanh f -> Array.length f.t2
    | K.Sinpi f -> Array.length f.spn + Array.length f.cpn
    | K.Cospi f -> Array.length f.spn + Array.length f.cpn
    | K.Sinh f -> Array.length f.sh + Array.length f.ch
    | K.Cosh f -> Array.length f.sh + Array.length f.ch
  in
  let tier =
    match p.tier with
    | None -> 0
    | Some tps ->
        Array.fold_left
          (fun acc (tp : K.tpiece) -> acc + Array.length tp.tneg.t_coeffs + Array.length tp.tpos.t_coeffs)
          0 tps
  in
  8 * (pieces + fam + tier)

(* The ablation ladder and the bare kernel loop for one kernel table. *)
let kernel_loops (t : W.table) p =
  let c = Serve.Run.pin p in
  let s = K.scratch () in
  let pcs = c.K.pieces in
  let two = Array.length pcs > 1 in
  let dst = Array.make W.batch 0 in
  let n = W.batch in
  let pieces () =
    K.eval_piece (Array.unsafe_get pcs 0) s 1;
    if two then K.eval_piece (Array.unsafe_get pcs 1) s 2
  in
  (* Compensated values of the fast-path elements, as (hi, lo) halves,
     for timing [round_bits] alone. *)
  let ys =
    Array.map
      (fun src ->
        let hs = ref [] in
        Array.iter
          (fun pat ->
            let aux = K.stage1 c s pat in
            if aux >= 0 then begin
              pieces ();
              ignore (K.compose c s aux);
              let yb = Int64.bits_of_float s.(3) in
              hs :=
                (Int64.to_int (Int64.shift_right_logical yb 32), Int64.to_int (Int64.logand yb 0xFFFF_FFFFL))
                :: !hs
            end)
          src;
        Array.of_list (List.rev !hs))
      t.batches
  in
  let fallbacks =
    Array.fold_left
      (fun acc src -> Array.fold_left (fun acc pat -> if K.stage1 c s pat < 0 then acc + 1 else acc) acc src)
      0 t.batches
  in
  let loops =
    [|
      ( "serve.decode_special_ns",
        fun b ->
          let src = t.batches.(b) and k = ref 0 in
          for i = 0 to n - 1 do
            if K.is_fast c (Array.unsafe_get src i) then incr k
          done;
          keep !k;
          n );
      ( "serve.reduce_ns",
        fun b ->
          let src = t.batches.(b) and k = ref 0 in
          for i = 0 to n - 1 do
            k := !k lxor K.stage1 c s (Array.unsafe_get src i)
          done;
          keep !k;
          n );
      ( "serve.horner_ns",
        fun b ->
          let src = t.batches.(b) in
          for i = 0 to n - 1 do
            if K.stage1 c s (Array.unsafe_get src i) >= 0 then pieces ()
          done;
          n );
      ( "serve.compose_round_ns",
        fun b ->
          let src = t.batches.(b) and k = ref 0 in
          for i = 0 to n - 1 do
            let aux = K.stage1 c s (Array.unsafe_get src i) in
            if aux >= 0 then begin
              pieces ();
              k := !k lxor K.compose c s aux
            end
          done;
          keep !k;
          n );
      ( "serve.kernel_eval",
        fun b ->
          let src = t.batches.(b) in
          for i = 0 to n - 1 do
            Array.unsafe_set dst i (K.eval c s (Array.unsafe_get src i))
          done;
          n );
      ( "serve.round_bits_ns",
        fun b ->
          let y = ys.(b) and k = ref 0 in
          Array.iter (fun (hi, lo) -> k := !k lxor K.round_bits c c.K.mode hi lo) y;
          keep !k;
          Array.length y );
    |]
  in
  (loops, fallbacks)

(* Loops every table gets: the Funcs.Batch entry point, the boxed
   closure, the special-case probe, and the comparators. *)
let common_loops (t : W.table) =
  let module T = (val t.ts.target.repr) in
  let n = W.batch in
  let dst = Array.make n 0 in
  let per_pattern name f =
    ( name,
      fun b ->
        let src = t.batches.(b) in
        for i = 0 to n - 1 do
          Array.unsafe_set dst i (f (Array.unsafe_get src i))
        done;
        n )
  in
  let boxed = G.compile t.g in
  let special = t.g.spec.special in
  let optional name mk = match mk () with f -> [ per_pattern name f ] | exception Invalid_argument _ -> [] in
  let crlibm () =
    let f = Baselines.Crlibm_analog.timed_eval t.ts.fname in
    fun pat -> T.of_double (f (T.to_double pat))
  in
  let native mode () = Baselines.Native.eval_pattern mode t.ts.target t.ts.fname in
  Array.of_list
    ([
       ( "funcs.batch",
         fun b ->
           Funcs.Batch.eval_patterns t.g t.batches.(b) dst;
           n );
       per_pattern "rlibm.boxed_ns" boxed;
       ( "rlibm.special_ns",
         fun b ->
           let src = t.batches.(b) and k = ref 0 in
           for i = 0 to n - 1 do
             if Option.is_some (special (Array.unsafe_get src i)) then incr k
           done;
           keep !k;
           n );
       per_pattern "baselines.double_libm_ns" (W.double_libm t);
     ]
    @ optional "baselines.crlibm_ns" crlibm
    @ (if T.name = "posit32" then [] else optional "baselines.native_f32_ns" (native Baselines.Native.F32))
    @ optional "baselines.native_f64_ns" (native Baselines.Native.F64))

(* Payne-Hanek reduction on the finite, non-special inputs of a trig
   table, and on its |x| >= 2^8 subset. *)
let trig_loops (t : W.table) =
  let module T = (val t.ts.target.repr) in
  let xs big =
    Array.map
      (fun src ->
        Array.of_list
          (List.filter_map
             (fun pat ->
               if Option.is_some (t.g.spec.special pat) then None
               else
                 let x = T.to_double pat in
                 if big && Float.abs x < 256.0 then None else Some x)
             (Array.to_list src)))
      t.batches
  in
  let loop name xs =
    ( name,
      fun b ->
        Array.iter (fun x -> keep (Funcs.Reductions.trig_reduce x).key) xs.(b);
        Array.length xs.(b) )
  in
  [| loop "funcs.trig_reduce_ns" (xs false); loop "funcs.trig_reduce_huge_ns" (xs true) |]

let posit_loops (t : W.table) =
  let module P = Posit.Posit32 in
  let nar = 1 lsl 31 in
  let finite a = List.filter (fun p -> p <> nar) (Array.to_list a) |> Array.of_list in
  let ins = Array.map finite t.batches in
  let outs = Array.map (fun a -> Array.map P.to_double (finite a)) t.outs in
  [|
    ( "posit.decode_ns",
      fun b ->
        let acc = ref 0.0 in
        Array.iter (fun p -> acc := !acc +. P.to_double p) ins.(b);
        keep (int_of_float !acc);
        Array.length ins.(b) );
    ( "posit.encode_ns",
      fun b ->
        Array.iter (fun x -> keep (P.of_double x)) outs.(b);
        Array.length outs.(b) );
  |]

let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Per-table results that average, unchanged in name, into the
   workload's layer metrics. *)
let averaged =
  [
    "rlibm.boxed_ns"; "rlibm.special_ns"; "baselines.double_libm_ns"; "baselines.crlibm_ns";
    "baselines.native_f32_ns"; "baselines.native_f64_ns"; "funcs.trig_reduce_ns";
    "funcs.trig_reduce_huge_ns"; "posit.decode_ns"; "posit.encode_ns"; "serve.round_bits_ns";
  ]

(** Serving layer metrics for one workload's tables, into [tbl]: each is
    the mean over the tables that exercise the layer. *)
let serving tr ~workload ~(tbl : (string, float) Hashtbl.t) (tables : W.table array) =
  let acc = Hashtbl.create 32 in
  let push k v = Hashtbl.replace acc k (v :: Option.value ~default:[] (Hashtbl.find_opt acc k)) in
  let stages = [| "decode_special_ns"; "reduce_ns"; "horner_ns"; "compose_round_ns" |] in
  let fallbacks = ref 0 and kernel_elems = ref 0 and bytes = ref 0 in
  Array.iter
    (fun (t : W.table) ->
      let nbatches = Array.length t.batches in
      let kernel = Option.map (fun p -> (p, kernel_loops t p)) t.plan in
      let extra =
        Array.append
          (match t.ts.fname with "sin" | "cos" | "tan" -> trig_loops t | _ -> [||])
          (if t.ts.target.tname = "posit32" then posit_loops t else [||])
      in
      let loops =
        Array.concat [ (match kernel with Some (_, (l, _)) -> l | None -> [||]); common_loops t; extra ]
      in
      let h = run_loops tr ~workload ~label:t.label ~nbatches loops in
      let get = Hashtbl.find_opt h in
      List.iter (fun k -> Option.iter (push k) (get k)) averaged;
      (match kernel with
      | None -> ()
      | Some (p, (_, fb)) ->
          fallbacks := !fallbacks + fb;
          kernel_elems := !kernel_elems + (nbatches * W.batch);
          bytes := !bytes + plan_bytes p;
          let ladder = Array.map (fun s -> Option.value ~default:0.0 (get ("serve." ^ s))) stages in
          let costs = H.Summary.layer_costs ~calls:1 ladder in
          Array.iteri
            (fun i s ->
              push ("serve." ^ s) costs.(i);
              if List.mem t.label [ "f32_log2"; "f32_exp2"; "bf16_log2" ] then
                Hashtbl.replace tbl (Printf.sprintf "serve.%s.%s" t.label s) costs.(i))
            stages;
          push
            (Printf.sprintf "serve.%s.compose_round_ns" (Fp.Rounding_mode.to_string t.ts.target.mode))
            costs.(3));
      (* Dispatch: the entry point against the bare loop it wraps. *)
      let bare = get (if Option.is_some t.plan then "serve.kernel_eval" else "rlibm.boxed_ns") in
      match (get "funcs.batch", bare) with
      | Some b, Some k -> push "funcs.batch_dispatch_ns" (b -. k)
      | _ -> ())
    tables;
  Hashtbl.iter (fun k vs -> Hashtbl.replace tbl k (mean vs)) acc;
  Hashtbl.replace tbl "serve.fallback_frac"
    (if !kernel_elems = 0 then 0.0 else float_of_int !fallbacks /. float_of_int !kernel_elems);
  Hashtbl.replace tbl "serve.table_bytes" (float_of_int !bytes)

(* Outputs a probe served itself, against the scalar path of the table
   that produced them. *)
let check g batches outs =
  let failed = ref 0 in
  Array.iteri
    (fun b src -> Array.iteri (fun i pat -> if outs.(b).(i) <> G.eval_pattern g pat then incr failed) src)
    batches;
  (Array.length batches * W.batch, !failed)

(** RLIBM-PROG tier on bfloat16 log2: the tiered pipeline against the
    full-polynomial pipeline of the same progressive plan. *)
let tiers tr ~workload ~tbl (t : W.table) =
  let cfg = { Rlibm.Config.default with progressive = true } in
  let spec = Funcs.Specs.by_name t.ts.fname t.ts.target in
  match G.generate ~cfg spec ~patterns:(Funcs.Libm.enumeration t.ts.target t.ts.quality) with
  | Error msg -> raise (W.Generation_failed ("progressive " ^ t.label ^ ": " ^ msg))
  | Ok g -> (
      match Funcs.Kernels.of_generated g with
      | Some p when Option.is_some p.K.tier ->
          let outs = Array.map (fun _ -> Array.make W.batch 0) t.batches in
          let ctr = K.counters () in
          let h =
            run_loops tr ~workload ~label:(t.label ^ "_prog") ~nbatches:(Array.length t.batches)
              [|
                ( "serve.tier_prefix_ns",
                  fun b ->
                    Serve.Run.patterns_tiered p t.batches.(b) outs.(b) ctr;
                    W.batch );
                ( "serve.tier_full_ns",
                  fun b ->
                    Serve.Run.patterns p t.batches.(b) outs.(b);
                    W.batch );
              |]
          in
          Hashtbl.iter (Hashtbl.replace tbl) h;
          let total = Array.fold_left ( + ) 0 ctr in
          Hashtbl.replace tbl "serve.tier_prefix_frac"
            (float_of_int ctr.(K.c_prefix) /. float_of_int (Stdlib.max 1 total));
          check g t.batches outs
      | _ -> (0, 0))

(** Figure 5: float32 log2 at Draft quality with the sub-domain count
    forced to 2^n, served by the kernel through Funcs.Batch. *)
let fig5 tr ~workload ~tbl (t : W.table) =
  List.fold_left
    (fun (checked, failed) n ->
      let cfg = { Rlibm.Config.default with start_split_bits = n; max_split_bits = n } in
      let spec = { (Funcs.Specs.by_name "log2" Funcs.Specs.float32) with Rlibm.Spec.split_hint = 0 } in
      match G.generate ~cfg spec ~patterns:(Funcs.Libm.enumeration Funcs.Specs.float32 Draft) with
      | Error msg -> raise (W.Generation_failed (Printf.sprintf "fig5 split %d: %s" n msg))
      | Ok g ->
          let name = Printf.sprintf "fig5.log2_split%d_ns" n in
          let outs = Array.map (fun _ -> Array.make W.batch 0) t.batches in
          let h =
            run_loops tr ~workload ~label:(Printf.sprintf "log2_split%d" n)
              ~nbatches:(Array.length t.batches)
              [|
                ( name,
                  fun b ->
                    Funcs.Batch.eval_patterns g t.batches.(b) outs.(b);
                    W.batch );
              |]
          in
          Hashtbl.iter (Hashtbl.replace tbl) h;
          Hashtbl.replace tbl
            (Printf.sprintf "fig5.log2_split%d_degree" n)
            (float_of_int g.stats.per_component.(0).degree);
          let c, f = check g t.batches outs in
          (checked + c, failed + f))
    (0, 0) [ 0; 4; 8; 12 ]

(** Generation phases from [Rlibm.Stats] for the functions the certify
    workload generates, wherever a workload generates them. *)
let generation ~tbl (tables : W.table array) =
  Array.iter
    (fun (t : W.table) ->
      if List.mem t.label [ "f32_log2"; "f32_exp2"; "f32_sinpi"; "f32_sin" ] then begin
        let st = t.g.stats in
        let pass name =
          match List.find_opt (fun (p : Rlibm.Stats.pass) -> p.pass_name = name) st.passes with
          | Some p -> p.wall_seconds
          | None -> 0.0
        in
        let wall = W.secs t.gen_ns in
        let set k v = Hashtbl.replace tbl (Printf.sprintf "%s.%s.%s" (fst k) t.label (snd k)) v in
        set ("gen", "oracle_s") (pass "oracle");
        set ("gen", "check_s") (pass "check");
        set ("gen", "fit_s") (wall -. pass "oracle" -. pass "check");
        set ("gen", "reduced_inputs") (float_of_int st.n_reduced);
        set ("gen", "subdomains")
          (float_of_int
             (Array.fold_left (fun acc (c : Rlibm.Stats.component) -> acc + c.n_polynomials) 0 st.per_component));
        match st.lp with
        | None -> ()
        | Some l ->
            set ("lp", "solves") (float_of_int (l.lp_cold_solves + l.lp_warm_solves));
            set ("lp", "pivots") (float_of_int (l.lp_primal_pivots + l.lp_dual_pivots))
      end)
    tables
