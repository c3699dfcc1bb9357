(* The repo benchmark.  See README.md in this directory for the
   workloads, the metrics and the commands.

     suite.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     suite.exe --all [--seed N] [--seconds S] [--trace 0|1]
     suite.exe compare A B

   A workload run prints every end-to-end metric (or, with --trace 1,
   every per-layer metric) by name and unit, checks every output it
   served, writes a schema-v1 datafile, and ends with one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  It exits 1 when an
   output failed its check. *)

module H = Suite_harness
module W = Workload

let out_dir = "_suite"

(* The certification workload does fixed work sized from --seconds (see
   {!Workload.certify}): the whole lattice at 10 s, about what this
   takes on a 2-vCPU x86-64 host. *)
let certify_rounds seconds =
  let all = H.Inputs.lattice_size / H.Inputs.lattice_block in
  Stdlib.max 2 (Stdlib.min all (int_of_float (Float.round (seconds *. float_of_int all /. 10.0))))

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("suite: " ^ s); exit 2) fmt

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line -> Scanf.sscanf line "VmHWM: %d kB" Fun.id
    | _ -> find ()
    | exception End_of_file -> die "no VmHWM in /proc/self/status"
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) find in
  float_of_int kb /. 1024.0

(* ------------------------------------------------------------------ *)
(* One workload in this process.                                       *)
(* ------------------------------------------------------------------ *)

type result = {
  e2e : (string * float * float) list;  (** name, value, within-run spread *)
  layers : (string * float) list;
  attempted : int;
  failed : int;
  incorrect : int;
  incorrect_points : int;
  mismatches : Datafile.mismatch array;
  fingerprint : string;
  trials : int;
  samples : int;  (** latency samples over all trials *)
}

(* Throughput, latency percentiles and speed-up of a timed loop, each
   with its spread inside the run.  Throughput and latency come from the
   fastest decile of trials (see {!H.Summary.fastest_decile}).  A
   latency percentile is taken per table and the tables' values are
   combined by geometric mean, so it never sits on the boundary between
   two functions' latency clusters.  The speed-up, a ratio of two
   timings taken microseconds apart, divides the host's speed out and
   uses every trial. *)
let loop_metrics (trials : W.trial array) =
  let fast =
    Array.map
      (fun i -> trials.(i))
      (H.Summary.fastest_decile (Array.map (fun (t : W.trial) -> t.calls_per_s) trials))
  in
  let ntab = Array.length trials.(0).samples in
  let pct q (ts : W.trial array) =
    H.Summary.geomean
      (Array.init ntab (fun k ->
           H.Summary.percentile
             (H.Summary.sorted (Array.concat (Array.to_list (Array.map (fun (t : W.trial) -> t.samples.(k)) ts))))
             q))
  in
  let per_trial q = Array.map (fun t -> pct q [| t |]) fast in
  let cps = Array.map (fun (t : W.trial) -> t.calls_per_s) fast in
  let sp = Array.map (fun (t : W.trial) -> t.speedup) trials in
  [
    ("calls_per_s", H.Summary.median cps, H.Summary.rel_spread cps);
    ("p50_ns", pct 0.5 fast, H.Summary.rel_spread (per_trial 0.5));
    ("p90_ns", pct 0.9 fast, H.Summary.rel_spread (per_trial 0.9));
    ("speedup_vs_double_libm", H.Summary.median sp, H.Summary.rel_spread sp);
  ]

let run_workload ~(w : W.t) ~seed ~seconds ~traced ~trace_file =
  Parallel.set_jobs 1;
  let tr = if traced then Some (H.Spans.create ()) else None in
  let workload = w.name in
  let su = W.setup tr ~workload ~seed w in
  let tables = su.tables in
  let layers = Hashtbl.create 128 in
  (* The traced run gives half its time to the timed loop (its numbers,
     against the untraced run's, are the tracing overhead) and then runs
     the layer probes. *)
  let loop_seconds = if traced then seconds /. 2.0 else seconds in
  let trials, attempted, failed, incorrect, incorrect_points, mismatches =
    match w.kind with
    | W.Serve ->
        let trials = W.serve tr ~workload ~seconds:loop_seconds tables in
        let checked, failed = W.check_outputs tables in
        (trials, checked, failed, 0, 0, [||])
    | W.Certify ->
        let tmp = Filename.concat out_dir (Printf.sprintf "tmp-%d" (Unix.getpid ())) in
        let c =
          Fun.protect
            ~finally:(fun () -> W.rm_rf tmp)
            (fun () -> W.certify tr ~workload ~seed ~rounds:(certify_rounds loop_seconds) ~tmp tables)
        in
        Array.iteri
          (fun k (t : W.table) ->
            if c.oracle_calls.(k) > 0 then begin
              Hashtbl.replace layers
                (Printf.sprintf "oracle.%s.ns_per_call" t.label)
                (float_of_int c.oracle_ns.(k) /. float_of_int c.oracle_calls.(k));
              Hashtbl.replace layers (Printf.sprintf "oracle.%s.calls" t.label) (float_of_int c.oracle_calls.(k))
            end)
          tables;
        Hashtbl.replace layers "sweep.checkpoint_bytes" (float_of_int c.checkpoint_bytes);
        (c.trials, c.points, c.bit_failed + c.quarantined, c.incorrect, c.points, c.mismatches)
  in
  let lm = loop_metrics trials in
  let attempted = ref attempted and failed = ref failed in
  (match tr with
  | None -> ()
  | Some spans ->
      let count (c, f) =
        attempted := !attempted + c;
        failed := !failed + f
      in
      List.iter
        (fun (k, v, _) -> if k = "calls_per_s" || k = "p50_ns" then Hashtbl.replace layers ("trace." ^ k) v)
        lm;
      Probes.serving tr ~workload ~tbl:layers tables;
      Probes.generation ~tbl:layers tables;
      Array.iter
        (fun (t : W.table) ->
          if t.label = "bf16_log2" then count (Probes.tiers tr ~workload ~tbl:layers t);
          if t.label = "f32_log2" && w.kind = W.Serve && t.ts.inputs = W.Recipe then
            count (Probes.fig5 tr ~workload ~tbl:layers t))
        tables;
      (* Engine overhead: the engine spans' self time, i.e. their wall
         time outside the chunk function. *)
      let self = H.Spans.self_times spans in
      let overhead = ref 0 in
      for i = 0 to H.Spans.length spans - 1 do
        if String.starts_with ~prefix:"sweep.engine:" (H.Spans.get spans i).name then
          overhead := !overhead + self.(i)
      done;
      Hashtbl.replace layers "sweep.engine_overhead_s" (W.secs !overhead);
      H.Spans.write_jsonl spans ~path:trace_file;
      Printf.printf "trace: %d spans written to %s\n" (H.Spans.length spans) trace_file);
  let e2e =
    lm
    @ [
        ("setup_s", H.Summary.median su.setup_ns *. 1e-9, H.Summary.rel_spread su.setup_ns);
        (* The least disturbed generation pass, as with the trials. *)
        ("gen_s", Array.fold_left Float.min infinity su.gen_ns *. 1e-9, H.Summary.rel_spread su.gen_ns);
        ("peak_rss_mb", peak_rss_mb (), 0.0);
      ]
  in
  {
    e2e;
    layers = Hashtbl.fold (fun k v acc -> (k, v) :: acc) layers [];
    attempted = !attempted;
    failed = !failed;
    incorrect;
    incorrect_points;
    mismatches;
    fingerprint = W.fingerprint tables;
    trials = Array.length trials;
    samples =
      Array.fold_left
        (fun acc (t : W.trial) -> Array.fold_left (fun acc s -> acc + Array.length s) acc t.samples)
        0 trials;
  }

(* ------------------------------------------------------------------ *)
(* Reporting.                                                          *)
(* ------------------------------------------------------------------ *)

let frac a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* The metrics BENCHMARK.json declares, in its order, from what the run
   measured.  A measured metric BENCHMARK.json does not declare, or a
   declared end-to-end metric the run did not measure, is a suite bug. *)
let select (c : H.Contract.t) ~traced r =
  if traced then begin
    List.iter
      (fun (k, _) ->
        if not (List.exists (fun (m : H.Contract.metric) -> m.name = k) c.per_layer) then
          die "per-layer metric %s is not declared in BENCHMARK.json" k)
      r.layers;
    (* A layer the workload never enters costs it nothing: 0. *)
    List.map
      (fun (m : H.Contract.metric) -> (m, Option.value ~default:0.0 (List.assoc_opt m.name r.layers)))
      c.per_layer
  end
  else
    List.map
      (fun (m : H.Contract.metric) ->
        match List.find_opt (fun (k, _, _) -> k = m.name) r.e2e with
        | Some (_, v, _) -> (m, v)
        | None -> die "end-to-end metric %s was not measured" m.name)
      c.end_to_end

let datafile_row ~workload ~seed ~seconds ~traced r =
  let e2e = List.concat_map (fun (k, v, s) -> [ (k, v); (k ^ ".spread", s) ]) r.e2e in
  {
    Datafile.kind = "benchmark";
    func = workload;
    repr = "";
    mode = "";
    identity = Printf.sprintf "suite v1 workload=%s seed=%d seconds=%g" workload seed seconds;
    tables_hash = r.fingerprint;
    span = None;
    metrics =
      e2e
      @ [
          ("attempted", float_of_int r.attempted);
          ("failed", float_of_int r.failed);
          ("failed_frac", frac r.failed r.attempted);
          ("incorrect", float_of_int r.incorrect);
          ("incorrect_frac", frac r.incorrect r.incorrect_points);
          ("trials", float_of_int r.trials);
          ("samples", float_of_int r.samples);
        ]
      @ (if traced then List.sort compare r.layers else []);
    mismatches = r.mismatches;
    quarantined = [||];
  }

let datafile ~seed ~config rows =
  {
    Datafile.rev = Datafile.git_rev ();
    date = Datafile.timestamp ();
    seed = Some seed;
    config;
    host =
      Some { Datafile.jobs = 1; cpus = Domain.recommended_domain_count (); ocaml = Sys.ocaml_version };
    rows;
  }

let result_line ~correct ~attempted ~failed metrics =
  H.Json.to_string
    (H.Json.Obj
       [
         ("correct", H.Json.Bool correct);
         ("attempted", H.Json.Int attempted);
         ("failed", H.Json.Int failed);
         ( "metrics",
           H.Json.Obj
             (List.map
                (fun ((m : H.Contract.metric), v) ->
                  (m.name, H.Json.Obj [ ("value", H.Json.Num v); ("unit", H.Json.Str m.unit_) ]))
                metrics) );
       ])

(* A workload run's datafile; its spans go beside it as .jsonl. *)
let default_out ~name ~seed ~traced =
  Filename.concat out_dir (Printf.sprintf "%s-seed%d%s.json" name seed (if traced then "-trace" else ""))

let workload_main c ~name ~seed ~seconds ~traced ~out =
  let w = match W.find name with Some w -> w | None -> die "unknown workload %s" name in
  if not (List.mem name c.H.Contract.workloads) then die "workload %s is not in BENCHMARK.json" name;
  Sweep.Oracle_cache.mkdir_p out_dir;
  let out = Option.value out ~default:(default_out ~name ~seed ~traced) in
  let trace_file = Filename.remove_extension out ^ ".jsonl" in
  let r =
    try run_workload ~w ~seed ~seconds ~traced ~trace_file
    with W.Generation_failed msg -> die "generation failed: %s" msg
  in
  let metrics = select c ~traced r in
  Printf.printf "workload %s  seed %d  %s run\n" name seed (if traced then "traced" else "untraced");
  List.iter
    (fun ((m : H.Contract.metric), v) -> Printf.printf "  %-36s %18.6g %s\n" m.name v m.unit_)
    metrics;
  Printf.printf "  outputs checked %d, failed %d (failed_frac %g)\n" r.attempted r.failed
    (frac r.failed r.attempted);
  Printf.printf "  %d trials, %d latency samples\n" r.trials r.samples;
  if r.incorrect_points > 0 then
    Printf.printf "  certified points %d, not correctly rounded %d (incorrect_frac %g)\n"
      r.incorrect_points r.incorrect (frac r.incorrect r.incorrect_points);
  Printf.printf "  tables %s\n" r.fingerprint;
  Datafile.write ~path:out
    (datafile ~seed
       ~config:(Printf.sprintf "suite --workload %s --seconds %g --trace %d" name seconds (Bool.to_int traced))
       [ datafile_row ~workload:name ~seed ~seconds ~traced r ]);
  Printf.printf "  datafile %s\n" out;
  print_endline (result_line ~correct:(r.failed = 0) ~attempted:r.attempted ~failed:r.failed metrics);
  exit (if r.failed = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)
(* --all: every workload in a fresh process.                           *)
(* ------------------------------------------------------------------ *)

let child_run ~name ~seed ~seconds ~traced =
  let args =
    [|
      Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed; "--seconds";
      Printf.sprintf "%g" seconds; "--trace"; (if traced then "1" else "0");
    |]
  in
  let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> (
      let out = default_out ~name ~seed ~traced in
      match Datafile.read ~path:out with
      | Ok { Datafile.rows = [ row ]; _ } -> Some row
      | Ok _ -> die "%s: expected one row" out
      | Error msg -> die "%s: %s" out msg)
  | _ -> None

let metric (row : Datafile.row) k = List.assoc_opt k row.metrics

let all_main (c : H.Contract.t) ~seed ~seconds ~traced ~out =
  Sweep.Oracle_cache.mkdir_p out_dir;
  let ok = ref true in
  let rows =
    List.filter_map
      (fun name ->
        let run traced =
          let r = child_run ~name ~seed ~seconds ~traced in
          if r = None then ok := false;
          r
        in
        match run false with
        | None -> None
        | Some row when not traced -> Some row
        | Some row -> (
            match run true with
            | None -> Some row
            | Some trow ->
                let layers =
                  List.filter
                    (fun (k, _) -> List.exists (fun (m : H.Contract.metric) -> m.name = k) c.per_layer)
                    trow.metrics
                in
                let overhead k tk =
                  match (metric row k, metric trow tk) with
                  | Some u, Some t when u <> 0.0 -> [ ("trace.overhead." ^ k, (t /. u) -. 1.0) ]
                  | _ -> []
                in
                Some
                  {
                    row with
                    metrics =
                      row.metrics @ layers
                      @ overhead "calls_per_s" "trace.calls_per_s"
                      @ overhead "p50_ns" "trace.p50_ns";
                  }))
      c.workloads
  in
  let out = Option.value out ~default:(Filename.concat out_dir (Printf.sprintf "suite-seed%d.json" seed)) in
  Datafile.write ~path:out
    (datafile ~seed
       ~config:(Printf.sprintf "suite --all --seconds %g --trace %d" seconds (Bool.to_int traced))
       rows);
  let width (m : H.Contract.metric) = Stdlib.max 12 (String.length m.name) in
  Printf.printf "\n== suite seed %d ==\n%-22s" seed "workload";
  List.iter (fun (m : H.Contract.metric) -> Printf.printf " %*s" (width m) m.name) c.end_to_end;
  Printf.printf " %10s %10s\n" "failed" "incorrect";
  List.iter
    (fun (row : Datafile.row) ->
      Printf.printf "%-22s" row.func;
      List.iter
        (fun (m : H.Contract.metric) ->
          Printf.printf " %*.6g" (width m) (Option.value ~default:Float.nan (metric row m.name)))
        c.end_to_end;
      Printf.printf " %10g %10g\n"
        (Option.value ~default:Float.nan (metric row "failed_frac"))
        (Option.value ~default:Float.nan (metric row "incorrect_frac"));
      if traced then
        Printf.printf "%-22s tracing overhead: calls_per_s %+.2f%%, p50_ns %+.2f%%\n" ""
          (100.0 *. Option.value ~default:Float.nan (metric row "trace.overhead.calls_per_s"))
          (100.0 *. Option.value ~default:Float.nan (metric row "trace.overhead.p50_ns")))
    rows;
  Printf.printf "wrote %s\n" out;
  let clean = List.for_all (fun row -> metric row "failed" = Some 0.0) rows in
  exit (if !ok && clean then 0 else 1)

(* ------------------------------------------------------------------ *)
(* compare A B.                                                        *)
(* ------------------------------------------------------------------ *)

(* A side of a comparison: a datafile, or a directory of them (one per
   run). *)
let load_rows path =
  let files =
    if Sys.file_exists path && Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort compare
      |> List.map (Filename.concat path)
    else [ path ]
  in
  List.concat_map
    (fun f ->
      match Datafile.read ~path:f with
      | Ok d -> List.filter (fun (r : Datafile.row) -> r.kind = "benchmark") d.rows
      | Error msg -> die "%s: %s" f msg)
    files

let compare_main (c : H.Contract.t) a b =
  let ra = load_rows a and rb = load_rows b in
  let rows_of rs w = List.filter (fun (r : Datafile.row) -> r.func = w) rs in
  let must_not_rise = [ ("failed_frac", H.Contract.Lower); ("incorrect_frac", H.Contract.Lower) ] in
  let worse = ref false in
  Printf.printf "%-22s %-24s %14s %14s %9s  %s\n" "workload" "metric" "base" "new" "change" "verdict";
  List.iter
    (fun w ->
      match (rows_of ra w, rows_of rb w) with
      | [], _ | _, [] -> Printf.printf "%-22s (missing from one side)\n" w
      | xa, xb ->
          let side rows k =
            let values = Array.of_list (List.filter_map (fun r -> metric r k) rows) in
            let within = Option.value ~default:0.0 (metric (List.hd rows) (k ^ ".spread")) in
            { H.Contract.values; within }
          in
          let judge k better bound =
            let sa = side xa k and sb = side xb k in
            if Array.length sa.values = 0 || Array.length sb.values = 0 then
              Printf.printf "%-22s %-24s (not recorded)\n" w k
            else begin
              let v, ch = H.Contract.judge better ~bound ~base:sa ~curr:sb in
              if v = H.Contract.Worse then worse := true;
              Printf.printf "%-22s %-24s %14.6g %14.6g %+8.2f%%  %s\n" w k
                (H.Summary.median sa.values) (H.Summary.median sb.values) (100.0 *. ch)
                (H.Contract.verdict_to_string v)
            end
          in
          List.iter
            (fun (m : H.Contract.metric) -> judge m.name m.better (Option.value ~default:0.0 m.bound))
            c.end_to_end;
          List.iter (fun (k, better) -> judge k better 0.0) must_not_rise;
          let hashes rows = List.sort_uniq compare (List.map (fun (r : Datafile.row) -> r.tables_hash) rows) in
          Printf.printf "%-22s %-24s %s\n" w "tables"
            (if hashes xa = hashes xb then "identical" else "DIFFER"))
    c.workloads;
  exit (if !worse then 1 else 0)

(* ------------------------------------------------------------------ *)
(* Command line.                                                       *)
(* ------------------------------------------------------------------ *)

let usage =
  "usage: suite.exe --workload NAME | --all  [--seed N] [--seconds S] [--trace 0|1] [--out FILE]\n\
  \       suite.exe compare A B\n\
  run from the repo root, where BENCHMARK.json is"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | [] -> List.rev acc
    | "--all" :: rest -> opts (("--all", "") :: acc) rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" -> opts ((k, v) :: acc) rest
    | a :: _ -> die "unexpected argument %S\n%s" a usage
  in
  let c = match H.Contract.load "BENCHMARK.json" with Ok c -> c | Error msg -> die "%s" msg in
  match args with
  | [ "compare"; a; b ] -> compare_main c a b
  | _ ->
      let o = opts [] args in
      List.iter
        (fun (k, _) ->
          if not (List.mem k [ "--all"; "--workload"; "--seed"; "--seconds"; "--trace"; "--out" ]) then
            die "unknown option %s\n%s" k usage)
        o;
      let num k conv default =
        match List.assoc_opt k o with
        | None -> default
        | Some v -> ( match conv v with Some x -> x | None -> die "%s: bad value %S" k v)
      in
      let seed = num "--seed" int_of_string_opt 1 in
      let seconds = num "--seconds" float_of_string_opt (float_of_int c.run_seconds) in
      if seconds <= 0.0 then die "--seconds must be positive";
      let traced =
        match List.assoc_opt "--trace" o with
        | None | Some "0" -> false
        | Some "1" -> true
        | Some v -> die "--trace takes 0 or 1, not %S" v
      in
      let out = List.assoc_opt "--out" o in
      if List.mem_assoc "--all" o then all_main c ~seed ~seconds ~traced ~out
      else
        match List.assoc_opt "--workload" o with
        | Some name -> workload_main c ~name ~seed ~seconds ~traced ~out
        | None -> die "%s" usage
