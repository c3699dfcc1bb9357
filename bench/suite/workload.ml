(* The four workloads: which tables each one generates, the inputs it
   draws, and its timed closed loop (one caller, the next call issued
   when the previous one returns, load only through public entry
   points). *)

module H = Suite_harness
module G = Rlibm.Generator
module S = Funcs.Specs

let now () = Int64.to_int (Monotonic_clock.now ())
let secs ns = float_of_int ns *. 1e-9
let batch = H.Inputs.batch_size

(* ------------------------------------------------------------------ *)
(* Spans: [None] in the untraced run, so nothing is recorded there.    *)
(* ------------------------------------------------------------------ *)

type tracer = H.Spans.t option

let span (tr : tracer) ~parent ~trace ~name ~start_ns ~end_ns ~count =
  match tr with
  | None -> -1
  | Some t -> H.Spans.add t ~parent ~trace ~name ~start_ns ~end_ns ~count

let open_span tr ~parent ~trace name =
  let t = now () in
  span tr ~parent ~trace ~name ~start_ns:t ~end_ns:t ~count:0

let close_span (tr : tracer) id ~count =
  match tr with None -> () | Some t -> H.Spans.close t id ~end_ns:(now ()) ~count

(* ------------------------------------------------------------------ *)
(* Workload definitions.                                               *)
(* ------------------------------------------------------------------ *)

type inputs =
  | Recipe  (** {!H.Inputs.recipe} values for the function and format *)
  | Edge  (** half raw 32-bit patterns, half float32 edge patterns *)
  | Lattice  (** the certification lattice *)

type tspec = { target : S.target; fname : string; quality : Funcs.Libm.quality; inputs : inputs }
type kind = Serve | Certify
type t = { name : string; kind : kind; tables : tspec list }

let short (t : S.target) =
  match t.tname with
  | "float32" -> "f32"
  | "bfloat16" -> "bf16"
  | "float16" -> "f16"
  | "posit32" -> "p32"
  | s -> s

(** Table label, e.g. [f32_log2] or [bf16_exp2_up]; also the [<t>_<f>]
    part of the per-function layer metrics. *)
let label ts =
  let base = short ts.target ^ "_" ^ ts.fname in
  if ts.target.mode = Fp.Rounding_mode.Rne then base
  else base ^ "_" ^ Fp.Rounding_mode.to_string ts.target.mode

let f32 quality inputs fname = { target = S.float32; fname; quality; inputs }

(* Serving tables are generated at Draft quality, as bench/main.ml's
   figures are: the enumeration size changes which inputs constrain the
   tables, not the run-time path being timed, and it keeps the
   repeated set-up affordable.  16-bit tables always enumerate every
   input. *)
let all =
  [
    {
      name = "f32-uniform";
      kind = Serve;
      tables =
        List.map (f32 Draft Recipe)
          [ "ln"; "log2"; "log10"; "exp"; "exp2"; "exp10"; "sinh"; "cosh"; "sinpi"; "cospi" ];
    };
    {
      name = "f16-bf16-modes";
      kind = Serve;
      tables =
        List.concat_map
          (fun base ->
            List.concat_map
              (fun fname ->
                List.map
                  (fun mode ->
                    let target = if mode = Fp.Rounding_mode.Rne then base else S.with_mode base mode in
                    { target; fname; quality = Draft; inputs = Recipe })
                  [ Fp.Rounding_mode.Rne; Fp.Rounding_mode.Up ])
              [ "log2"; "exp2" ])
          [ S.bfloat16; S.float16 ];
    };
    {
      name = "f32-fallback";
      kind = Serve;
      tables =
        List.map (f32 Draft Recipe) [ "sin"; "cos"; "tan" ]
        @ List.map
            (fun fname -> { target = S.posit32; fname; quality = Draft; inputs = Recipe })
            [ "log2"; "exp2" ]
        @ List.map (f32 Draft Edge) [ "log2"; "exp2"; "sinpi" ];
    };
    {
      name = "f32-generate-certify";
      kind = Certify;
      tables = List.map (f32 Full Lattice) [ "log2"; "exp2"; "sinpi"; "sin" ];
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* ------------------------------------------------------------------ *)
(* Set-up: generation, plan lowering, input generation.                *)
(* ------------------------------------------------------------------ *)

type table = {
  ts : tspec;
  label : string;
  g : G.generated;
  plan : Serve.Kernel.plan option;
  gen_ns : int;
  batches : int array array;  (** input patterns, [batch] each *)
  outs : int array array;  (** the last served outputs of each batch *)
}

let batches_per_table = 16

let draw ~seed ts label =
  let module T = (val ts.target.repr) in
  Array.init batches_per_table (fun b ->
      let blabel = Printf.sprintf "%s/%d" label b in
      match ts.inputs with
      | Recipe ->
          H.Inputs.batch (module T) ~seed ~label:blabel
            (H.Inputs.recipe ~tname:ts.target.tname ts.fname)
      | Edge -> H.Inputs.edge_batch_f32 ~seed ~label:blabel
      | Lattice ->
          let offset = H.Inputs.lattice_offset ~seed in
          Array.init batch (fun k -> H.Inputs.lattice_point ~offset ((b * batch) + k)))

exception Generation_failed of string

(* What a table needs before generation: its spec, the enumeration the
   generator runs over, and its input batches. *)
type prepared = {
  p_ts : tspec;
  p_label : string;
  spec : Rlibm.Spec.t;
  patterns : int array;
  p_batches : int array array;
}

let prepare ~seed ts =
  let label = label ts in
  {
    p_ts = ts;
    p_label = label;
    spec = S.by_name ts.fname ts.target;
    patterns = Funcs.Libm.enumeration ts.target ts.quality;
    p_batches = draw ~seed ts label;
  }

(* Generation and plan lowering of one table, spanned under [parent]. *)
let generate tr ~parent ~trace p =
  let a = now () in
  match G.generate p.spec ~patterns:p.patterns with
  | Error msg -> raise (Generation_failed (p.p_label ^ ": " ^ msg))
  | Ok g ->
      let b = now () in
      ignore
        (span tr ~parent ~trace ~name:("gen_s:" ^ p.p_label) ~start_ns:a ~end_ns:b
           ~count:(Array.length p.patterns));
      {
        ts = p.p_ts;
        label = p.p_label;
        g;
        plan = Funcs.Kernels.of_generated g;
        gen_ns = b - a;
        batches = p.p_batches;
        outs = Array.map (fun _ -> Array.make batch 0) p.p_batches;
      }

let gen_total tables = float_of_int (Array.fold_left (fun acc (t : table) -> acc + t.gen_ns) 0 tables)

type setup = {
  tables : table array;  (** from the last repetition *)
  setup_ns : float array;  (** per repetition *)
  gen_ns : float array;  (** per generation pass, summed over tables *)
}

(* Set-up is process start to the first timed call.  It repeats at
   least three times and for at least three seconds, so the suite can
   report the median: the first repetition also pays one-time process
   costs (shared constant tables, oracle constants), a millisecond
   set-up needs many repetitions to repeat, and a burst of load from
   another tenant of the machine, which can last a second or two, must
   not cover every repetition.  A serving workload's set-up
   generates and lowers its tables.  The certification workload's
   generation is its first timed work, so its set-up only prepares specs,
   enumerations and inputs; the generation then runs twice, in the cold
   process and again warm, and the suite reports the faster pass. *)
let setup tr ~workload ~seed (w : t) =
  let setup_ns = ref [] and gen_ns = ref [] and last = ref ([||], [||]) in
  let start = now () in
  let r = ref 0 in
  while !r < 3 || now () - start < 3_000_000_000 do
    let trace = Printf.sprintf "%s/setup%d" workload !r in
    (* Each repetition starts from a compacted heap, so the earlier
       ones' garbage does not tax the later ones' collections. *)
    Gc.compact ();
    let t0 = now () in
    let root = open_span tr ~parent:(-1) ~trace "setup_s" in
    let prepared = Array.of_list (List.map (prepare ~seed) w.tables) in
    let tables =
      match w.kind with
      | Serve -> Array.map (generate tr ~parent:root ~trace) prepared
      | Certify -> [||]
    in
    close_span tr root ~count:(Array.length prepared);
    setup_ns := float_of_int (now () - t0) :: !setup_ns;
    if w.kind = Serve then gen_ns := gen_total tables :: !gen_ns;
    last := (prepared, tables);
    incr r
  done;
  let prepared, tables = !last in
  let setup_ns = Array.of_list !setup_ns in
  match w.kind with
  | Serve -> { tables; setup_ns; gen_ns = Array.of_list !gen_ns }
  | Certify ->
      let pass r =
        let trace = Printf.sprintf "%s/generate%d" workload r in
        Gc.compact ();
        let root = open_span tr ~parent:(-1) ~trace "gen_s" in
        let tables = Array.map (generate tr ~parent:root ~trace) prepared in
        close_span tr root ~count:(Array.length tables);
        tables
      in
      let cold = pass 0 in
      let warm = pass 1 in
      { tables = warm; setup_ns; gen_ns = [| gen_total cold; gen_total warm |] }

(** Combined fingerprint of every served table: FNV-1a over each table's
    label and {!G.tables_fingerprint}, in workload order. *)
let fingerprint tables =
  let s =
    String.concat "\n"
      (Array.to_list (Array.map (fun t -> t.label ^ "=" ^ G.tables_fingerprint t.g) tables))
  in
  Printf.sprintf "fnv1a:%016Lx" (H.Rng.fnv64 s)

let double_libm t =
  let module T = (val t.ts.target.repr) in
  Baselines.Double_libm.eval (module T) t.ts.fname

(* ------------------------------------------------------------------ *)
(* Serving loop.                                                       *)
(* ------------------------------------------------------------------ *)

(* One trial of a timed loop: its throughput, its speed-up over the
   double-libm comparator, and per table its latency samples (ns per
   element, one per batch call or certification chunk). *)
type trial = { calls_per_s : float; speedup : float; samples : float array array }

let min_trials = 5

(* A trial is 16 rounds; each round sends every table one batch (batch
   index = round), so a trial covers every batch of every table once.
   After each rlibm batch the same inputs go through the double-libm
   comparator, so both see the same inputs under the same conditions. *)
let serve tr ~workload ~seconds tables =
  let ntab = Array.length tables in
  let dbl = Array.map double_libm tables in
  let scratch = Array.make batch 0 in
  Gc.compact ();
  let trials = ref [] in
  let batch_name = Array.map (fun t -> "p50_ns:" ^ t.label) tables in
  let dbl_name = Array.map (fun t -> "baselines.double_libm_ns:" ^ t.label) tables in
  let deadline = now () + int_of_float (seconds *. 1e9) in
  let trial = ref 0 in
  while !trial < min_trials || now () < deadline do
    let trace = Printf.sprintf "%s/trial%d" workload !trial in
    let tid = open_span tr ~parent:(-1) ~trace "calls_per_s" in
    let rl = Array.make ntab 0 and db = Array.make ntab 0 in
    let samples = Array.init ntab (fun _ -> Array.make batches_per_table 0.0) in
    for round = 0 to batches_per_table - 1 do
      for k = 0 to ntab - 1 do
        let t = tables.(k) in
        let src = t.batches.(round) and dst = t.outs.(round) in
        let a = now () in
        Funcs.Batch.eval_patterns t.g src dst;
        let b = now () in
        let f = dbl.(k) in
        for i = 0 to batch - 1 do
          Array.unsafe_set scratch i (f (Array.unsafe_get src i))
        done;
        let c = now () in
        rl.(k) <- rl.(k) + (b - a);
        db.(k) <- db.(k) + (c - b);
        samples.(k).(round) <- float_of_int (b - a) /. float_of_int batch;
        ignore (span tr ~parent:tid ~trace ~name:batch_name.(k) ~start_ns:a ~end_ns:b ~count:batch);
        ignore (span tr ~parent:tid ~trace ~name:dbl_name.(k) ~start_ns:b ~end_ns:c ~count:batch)
      done
    done;
    let n = batches_per_table * ntab * batch in
    close_span tr tid ~count:n;
    trials :=
      {
        calls_per_s = float_of_int n /. secs (Array.fold_left ( + ) 0 rl);
        speedup = H.Summary.geomean (Array.init ntab (fun k -> float_of_int db.(k) /. float_of_int rl.(k)));
        samples;
      }
      :: !trials;
    incr trial
  done;
  Array.of_list (List.rev !trials)

(** Outputs of every batch against the scalar path: (checked, failed). *)
let check_outputs tables =
  let checked = ref 0 and failed = ref 0 in
  Array.iter
    (fun t ->
      Array.iteri
        (fun b src ->
          Array.iteri
            (fun i pat ->
              incr checked;
              if t.outs.(b).(i) <> G.eval_pattern t.g pat then incr failed)
            src)
        t.batches)
    tables;
  (!checked, !failed)

(* ------------------------------------------------------------------ *)
(* Certification loop.                                                 *)
(* ------------------------------------------------------------------ *)

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p

type certify = {
  trials : trial array;
  points : int;
  bit_failed : int;  (** served outputs that differ from [eval_pattern] *)
  quarantined : int;  (** points in quarantined chunks *)
  incorrect : int;  (** points whose output differs from the oracle *)
  mismatches : Datafile.mismatch array;
  oracle_ns : int array;  (** per table *)
  oracle_calls : int array;
  checkpoint_bytes : int;
}

(* Certification work is fixed, not timed: [rounds] rounds, each a
   {!H.Inputs.lattice_block}-point block of the lattice per table
   through one {!Sweep.Engine.run}, so two runs of one seed certify the
   same points and agree on every count.  The suite sizes [rounds] from
   --seconds.  A chunk is {!H.Inputs.lattice_chunk} points, an even
   sample of the 32-bit space, so chunks of one function cost alike. *)
let certify tr ~workload ~seed ~rounds ~tmp tables =
  let ntab = Array.length tables in
  let offset = H.Inputs.lattice_offset ~seed in
  let n = H.Inputs.lattice_block in
  let trials = ref [] in
  let bit_failed = ref 0 and quarantined = ref 0 and incorrect = ref [] in
  let oracle_ns = Array.make ntab 0 and oracle_calls = Array.make ntab 0 in
  let ckpt = ref 0 in
  for r = 0 to rounds - 1 do
    let trace = Printf.sprintf "%s/round%d" workload r in
    let rid = open_span tr ~parent:(-1) ~trace "calls_per_s" in
    let samples = Array.make ntab [] in
    let wall = ref 0 in
    let served_ns = Array.make ntab 0 and dbl_ns = Array.make ntab 0 in
    for k = 0 to ntab - 1 do
      let t = tables.(k) in
      let spec = t.g.spec in
      let module T = (val spec.repr) in
      let dbl = double_libm t in
      let base = r * n in
      let eid = ref (-1) in
      let chunk ~lo ~hi =
        let m = hi - lo in
        let pats = Array.init m (fun i -> H.Inputs.lattice_point ~offset (base + lo + i)) in
        let served = Array.make m 0 and scratch = Array.make m 0 and want = Array.make m 0 in
        let c0 = now () in
        Funcs.Batch.eval_patterns t.g pats served;
        let c1 = now () in
        for i = 0 to m - 1 do
          scratch.(i) <- dbl pats.(i)
        done;
        let c2 = now () in
        (* Ground truth as bin/check sweep takes it: the special-case
           analysis, else Ziv's oracle. *)
        let calls = ref 0 in
        for i = 0 to m - 1 do
          want.(i) <-
            (match spec.special pats.(i) with
            | Some y -> y
            | None ->
                incr calls;
                Oracle.Elementary.correctly_rounded ~round:(T.round_rational ~mode:spec.mode)
                  spec.oracle (T.to_rational pats.(i)))
        done;
        let c3 = now () in
        let ms = ref [] in
        for i = m - 1 downto 0 do
          if served.(i) <> G.eval_pattern t.g pats.(i) then incr bit_failed;
          if not (G.patterns_value_equal spec.repr served.(i) want.(i)) then
            ms := { Sweep.Checkpoint.pattern = pats.(i); got = served.(i); want = want.(i) } :: !ms
        done;
        let c4 = now () in
        samples.(k) <- (float_of_int (c4 - c0) /. float_of_int m) :: samples.(k);
        served_ns.(k) <- served_ns.(k) + (c1 - c0);
        dbl_ns.(k) <- dbl_ns.(k) + (c2 - c1);
        oracle_ns.(k) <- oracle_ns.(k) + (c3 - c2);
        oracle_calls.(k) <- oracle_calls.(k) + !calls;
        if Option.is_some tr then begin
          let cid = span tr ~parent:!eid ~trace ~name:("p50_ns:" ^ t.label) ~start_ns:c0 ~end_ns:c4 ~count:m in
          let sub name a b count = ignore (span tr ~parent:cid ~trace ~name:(name ^ ":" ^ t.label) ~start_ns:a ~end_ns:b ~count) in
          sub "funcs.batch" c0 c1 m;
          sub "baselines.double_libm_ns" c1 c2 m;
          sub "oracle.ns_per_call" c2 c3 !calls
        end;
        !ms
      in
      let dir = Filename.concat tmp (Printf.sprintf "%s-r%d" t.label r) in
      let identity = Printf.sprintf "suite certify %s seed=%d round=%d" t.label seed r in
      eid := open_span tr ~parent:rid ~trace ("sweep.engine:" ^ t.label);
      let a = now () in
      (match Sweep.Engine.run ~dir ~identity ~n ~chunk_size:H.Inputs.lattice_chunk ~jobs:1 chunk with
      | Error msg -> failwith ("certify: " ^ msg)
      | Ok o ->
          Array.iter
            (fun (m : Sweep.Checkpoint.mismatch) ->
              incorrect := { Datafile.pattern = m.pattern; got = m.got; want = m.want } :: !incorrect)
            o.Sweep.Engine.mismatches;
          List.iter (fun (_, lo, hi, _) -> quarantined := !quarantined + (hi - lo)) o.quarantined);
      wall := !wall + (now () - a);
      close_span tr !eid ~count:n;
      ckpt := (Unix.stat (Sweep.Engine.checkpoint_path dir)).Unix.st_size;
      rm_rf dir
    done;
    close_span tr rid ~count:(ntab * n);
    trials :=
      {
        calls_per_s = float_of_int (ntab * n) /. secs !wall;
        speedup =
          H.Summary.geomean
            (Array.init ntab (fun k -> float_of_int dbl_ns.(k) /. float_of_int served_ns.(k)));
        samples = Array.map Array.of_list samples;
      }
      :: !trials
  done;
  {
    trials = Array.of_list (List.rev !trials);
    points = rounds * ntab * n;
    bit_failed = !bit_failed;
    quarantined = !quarantined;
    incorrect = List.length !incorrect;
    mismatches = Array.of_list (List.rev !incorrect);
    oracle_ns;
    oracle_calls;
    checkpoint_bytes = !ckpt;
  }
