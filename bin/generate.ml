(* Generator driver: Table 3 of the paper (generation statistics), plus
   one-off generation of any (function, target) with tunable knobs. *)

open Cmdliner

let target_of = function
  | "float32" -> Funcs.Specs.float32
  | "posit32" -> Funcs.Specs.posit32
  | "bfloat16" -> Funcs.Specs.bfloat16
  | "float16" -> Funcs.Specs.float16
  | "posit16" -> Funcs.Specs.posit16
  | "float34" -> Funcs.Specs.float34
  | "bfloat18" -> Funcs.Specs.bfloat18
  | "float18" -> Funcs.Specs.float18
  | t -> invalid_arg ("unknown target: " ^ t)

let names_for (t : Funcs.Specs.target) =
  if t.mode <> Fp.Rounding_mode.Rne then Funcs.Specs.non_nearest_functions t.mode
  else
    match t.tname with
    | "posit32" | "posit16" -> Funcs.Specs.posit_functions
    | _ -> Funcs.Specs.float_functions

(* "float32" for the default mode, "float32@up" otherwise — the RNE
   output (what CI diffs against recorded dumps) stays byte-identical. *)
let label (t : Funcs.Specs.target) =
  if t.mode = Fp.Rounding_mode.Rne then t.tname
  else t.tname ^ "@" ^ Fp.Rounding_mode.to_string t.mode

(* Expand one named target into the requested mode variants. *)
let targets_for tname mode all_modes =
  let t = target_of tname in
  if all_modes then List.map (Funcs.Specs.with_mode t) Fp.Rounding_mode.all
  else match mode with None -> [ t ] | Some m -> [ Funcs.Specs.with_mode t m ]

(* None when every knob is at its default, so the cold path hands
   Libm.get exactly the cfg-less call it always got (byte-identical
   output).  RLIBM_PROG=1 / RLIBM_LP_WARM=1 already flow through
   Config.default, so flags only ever turn knobs on. *)
let cfg_of ~lp_warm ~prog =
  if lp_warm || prog then
    Some
      {
        Rlibm.Config.default with
        lp_warm = Rlibm.Config.default.lp_warm || lp_warm;
        progressive = Rlibm.Config.default.progressive || prog;
      }
  else None

(* [true] when [name] generated.  Both subcommands print every requested
   function, then exit 1 if any of them was refused or failed. *)
let run_one (t : Funcs.Specs.target) quality ?cfg ~pass_stats ~emit name =
  let t0 = Unix.gettimeofday () in
  match Funcs.Libm.get ~quality ?cfg t name with
  | exception Invalid_argument msg ->
      Printf.printf "%-7s %-9s SKIPPED: %s\n%!" name (label t) msg;
      false
  | g ->
      let wall = Unix.gettimeofday () -. t0 in
      let s = g.Rlibm.Generator.stats in
      Array.iter
        (fun (c : Rlibm.Stats.component) ->
          Printf.printf "%-7s %-9s %-10s %6.1f %9d %7d %7d  2^%-3d %4d %4d\n%!" name (label t)
            c.cname wall s.n_inputs s.n_special c.n_constraints c.split_bits c.degree c.n_terms)
        s.per_component;
      emit name t wall g;
      if pass_stats then begin
        List.iter (Format.printf "%a" Rlibm.Stats.pp_pass) s.Rlibm.Stats.passes;
        (match s.Rlibm.Stats.oracle_cache with
        | None -> ()
        | Some c ->
            Format.printf "  oracle cache: %d hits, %d misses@." c.Rlibm.Stats.cache_hits
              c.Rlibm.Stats.cache_misses);
        (match s.Rlibm.Stats.lp with
        | None -> ()
        | Some l ->
            Format.printf
              "  lp %s: %d cold solves (%d primal pivots), %d warm solves (%d dual pivots, %d \
               fallbacks), %d refactorizations@."
              (if l.lp_warm_mode then "warm" else "cold")
              l.lp_cold_solves l.lp_primal_pivots l.lp_warm_solves l.lp_dual_pivots
              l.lp_warm_fallbacks l.lp_refactorizations);
        match s.Rlibm.Stats.prog with
        | None -> ()
        | Some p -> Format.printf "%a" Rlibm.Stats.pp_prog p
      end;
      true
  | exception Failure msg ->
      Printf.printf "%-7s %-9s FAILED: %s\n%!" name (label t) msg;
      false

let stats jobs pass_stats lp_warm prog targets mode all_modes quality fns datafile =
  (match jobs with Some j -> Parallel.set_jobs j | None -> ());
  let cfg = cfg_of ~lp_warm ~prog in
  let failed = ref false in
  let rows = ref [] in
  (* One "generate" row per successfully generated (function, target):
     Table 3 numbers plus the tables fingerprint, so a later run can
     prove whether a substrate change moved the generated artifact. *)
  let emit name (t : Funcs.Specs.target) wall (g : Rlibm.Generator.generated) =
    if datafile <> None then begin
      let s = g.Rlibm.Generator.stats in
      let sum f =
        Array.fold_left (fun a (c : Rlibm.Stats.component) -> a + f c) 0 s.per_component
      in
      rows :=
        {
          Datafile.kind = "generate";
          func = name;
          repr = t.tname;
          mode = Fp.Rounding_mode.to_string t.mode;
          identity = "";
          tables_hash = Rlibm.Generator.tables_fingerprint g;
          span = None;
          metrics =
            ([
               ("generate.wall_seconds", wall);
               ("generate.inputs", float_of_int s.n_inputs);
               ("generate.special", float_of_int s.n_special);
               ("generate.constraints", float_of_int (sum (fun c -> c.n_constraints)));
               ("generate.terms", float_of_int (sum (fun c -> c.n_terms)));
             ]
            @
            (* Progressive tier selection, gated under prog.* so a
               vanished tier fails the datafile diff loudly. *)
            match s.prog with
            | None -> []
            | Some p ->
                [
                  ("prog.joint_fast_pct", 100.0 *. p.Rlibm.Stats.prog_joint_coverage);
                  ( "prog.serve_k_sum",
                    float_of_int
                      (Array.fold_left
                         (fun a (c : Rlibm.Stats.prog_component) -> a + c.p_serve_k)
                         0 p.prog_components) );
                ]);
          mismatches = [||];
          quarantined = [||];
        }
        :: !rows
    end
  in
  Printf.printf "%-7s %-9s %-10s %6s %9s %7s %7s  %-5s %4s %4s\n" "func" "target" "component"
    "time_s" "inputs" "special" "reduced" "polys" "deg" "terms";
  List.iter
    (fun tname ->
      List.iter
        (fun t ->
          let names = if fns = [] then names_for t else fns in
          List.iter
            (fun name -> if not (run_one t quality ?cfg ~pass_stats ~emit name) then failed := true)
            names)
        (targets_for tname mode all_modes))
    targets;
  (match datafile with
  | None -> ()
  | Some path ->
      Datafile.write ~path
        {
          Datafile.rev = Datafile.git_rev ();
          date = Datafile.timestamp ();
          seed = None;
          config =
            Printf.sprintf "generate stats quality=%s%s%s"
              (match quality with Funcs.Libm.Quick -> "quick" | Full -> "full" | Draft -> "draft")
              (if lp_warm then " lp-warm" else "")
              (if prog then " prog" else "");
          host =
            Some
              {
                Datafile.jobs = Parallel.jobs ();
                cpus = Domain.recommended_domain_count ();
                ocaml = Sys.ocaml_version;
              };
          rows = List.rev !rows;
        };
      Printf.printf "datafile: %s (%d rows)\n" path (List.length !rows));
  if !failed then exit 1

let jobs_term =
  Arg.(value & opt (some int) None
       & info [ "j"; "jobs" ]
           ~doc:"Worker domains for the sharded passes (default: RLIBM_JOBS or the runtime's recommendation).")

let pass_stats_term =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print per-pass shard statistics (jobs, wall/busy seconds, throughput) after each function.")

let targets_term =
  Arg.(value & opt_all string [ "float32"; "posit32" ]
       & info [ "t"; "target" ]
           ~doc:"Target representation (repeatable): float32, posit32, bfloat16, float16, \
                 posit16, or an odd extended target float34/bfloat18/float18.")

let mode_conv =
  let parse s =
    match Fp.Rounding_mode.of_string s with
    | Some m -> Ok m
    | None -> Error (`Msg ("unknown rounding mode: " ^ s ^ " (want rne/rna/up/down/zero/odd)"))
  in
  Arg.conv (parse, Fp.Rounding_mode.pp)

let mode_term =
  Arg.(value & opt (some mode_conv) None
       & info [ "mode" ]
           ~doc:"Rounding mode for the target (rne, rna, up, down, zero, odd; default: the \
                 target's own — RNE for IEEE targets, odd for the extended ones).  Non-nearest \
                 modes restrict the default function list to the odd-capable set.")

let all_modes_term =
  Arg.(value & flag
       & info [ "all-modes" ]
           ~doc:"Run the target under every rounding mode (the five IEEE-754 modes plus \
                 round-to-odd); overrides --mode.")

let quality_term =
  Arg.(value
       & opt (enum [ ("quick", Funcs.Libm.Quick); ("full", Funcs.Libm.Full) ]) Funcs.Libm.Quick
       & info [ "quality" ] ~doc:"Generation quality (quick default; full = 3x the enumeration).")

let funcs_term =
  Arg.(value & opt_all string [] & info [ "f"; "function" ] ~doc:"Generate only this function.")

let datafile_term =
  Arg.(value & opt (some string) None
       & info [ "datafile" ] ~docv:"PATH"
           ~doc:"Write the generation statistics (one row per function × target, with the \
                 tables fingerprint) as a schema-v$(b,1) datafile to $(docv).")

let prog_term =
  Arg.(value & flag
       & info [ "prog" ]
           ~doc:"Progressive polynomials: pin-refit each piece so a short coefficient prefix \
                 is correctly rounded on most reduced inputs, record per-prefix coverage \
                 certificates, and select the serving tier.  Also enabled by RLIBM_PROG=1.  \
                 Off by default — the cold generation output is byte-identical without it.")

let lp_warm_term =
  Arg.(value & flag
       & info [ "lp-warm" ]
           ~doc:"Warm-start the LP solves (dual-simplex basis reuse across counterexample \
                 rounds and sub-domain splits).  Faster; same sat/unsat answers, but \
                 coefficient vertices — and so the emitted tables — may differ from the \
                 deterministic cold default.  Also enabled by RLIBM_LP_WARM=1.")

let exits =
  Cmd.Exit.info 1 ~doc:"a requested function was refused or failed to generate."
  :: Cmd.Exit.defaults

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~exits ~doc:"Generator statistics for all functions (paper Table 3)")
    Term.(const stats $ jobs_term $ pass_stats_term $ lp_warm_term $ prog_term $ targets_term
          $ mode_term $ all_modes_term $ quality_term $ funcs_term $ datafile_term)

(* Bit-exact dump of the generated tables: every coefficient and scheme
   word as hex bits.  Diffing two dumps proves (or refutes) that a
   change to the exact-arithmetic substrate left the generated artifact
   bit-identical — the determinism contract CI leans on. *)
let dump jobs lp_warm prog targets mode all_modes quality fns =
  (match jobs with Some j -> Parallel.set_jobs j | None -> ());
  let cfg = cfg_of ~lp_warm ~prog in
  let failed = ref false in
  List.iter
    (fun tname ->
      List.iter
        (fun t ->
      let names = if fns = [] then names_for t else fns in
      List.iter
        (fun name ->
          match Funcs.Libm.get ~quality ?cfg t name with
          | exception Failure msg ->
              Printf.printf "%s %s FAILED: %s\n%!" name (label t) msg;
              failed := true
          | exception Invalid_argument msg ->
              Printf.printf "%s %s SKIPPED: %s\n%!" name (label t) msg;
              failed := true
          | g ->
              Printf.printf "%s %s\n" name (label t);
              Array.iteri
                (fun pi (pw : Rlibm.Piecewise.t) ->
                  Printf.printf "piece %d terms %s\n" pi
                    (String.concat ","
                       (Array.to_list (Array.map string_of_int pw.terms)));
                  let group label = function
                    | None -> Printf.printf "%s none\n" label
                    | Some (grp : Rlibm.Piecewise.group) ->
                        let s = grp.scheme in
                        Printf.printf "%s nbits %d shift %d lo %Lx hi %Lx\n" label s.nbits
                          s.shift s.lo_bits s.hi_bits;
                        Array.iteri
                          (fun i c -> Printf.printf "  c%d %Lx\n" i (Int64.bits_of_float c))
                          grp.coeffs
                  in
                  group "neg" pw.neg;
                  group "pos" pw.pos)
                g.Rlibm.Generator.pieces)
        names)
        (targets_for tname mode all_modes))
    targets;
  if !failed then exit 1

let dump_cmd =
  Cmd.v
    (Cmd.info "dump" ~exits ~doc:"Bit-exact hex dump of the generated tables (for determinism diffs)")
    Term.(const dump $ jobs_term $ lp_warm_term $ prog_term $ targets_term $ mode_term
          $ all_modes_term $ quality_term $ funcs_term)

let () =
  let info = Cmd.info "generate" ~exits ~doc:"RLIBM-32 library generator (Table 3)" in
  exit
    (Cmd.eval
       (Cmd.group
          ~default:
            Term.(const stats $ jobs_term $ pass_stats_term $ lp_warm_term $ prog_term
                  $ targets_term $ mode_term $ all_modes_term $ quality_term $ funcs_term
                  $ datafile_term)
          info [ stats_cmd; dump_cmd ]))
