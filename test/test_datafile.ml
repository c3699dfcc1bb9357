(* The versioned run datafile: round-trip (property and example),
   refusal of truncated/corrupted/future/pre-schema files, the paranoid
   merge rejection matrix, and the 2-shard-vs-1-shard campaign
   byte-identity the schema exists to guarantee. *)

module D = Datafile

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let check_err name subs = function
  | Ok _ -> Alcotest.fail (name ^ ": accepted")
  | Error msg ->
      List.iter
        (fun sub ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S in %S" name sub msg)
            true (contains sub msg))
        subs

(* ------------------------------------------------------------------ *)
(* Fixtures.                                                           *)
(* ------------------------------------------------------------------ *)

let row ?span ?(kind = "sweep") ?(func = "log2") ?(repr = "bfloat16") ?(mode = "rne")
    ?(identity = "id") ?(tables_hash = "fnv1a:00000000deadbeef") ?(metrics = [ ("sweep.fast", 7.0) ])
    ?(mismatches = [||]) ?(quarantined = [||]) () =
  { D.kind; func; repr; mode; identity; tables_hash; span; metrics; mismatches; quarantined }

let file ?(rev = "abc1234") ?(date = "2026-08-09T00:00:00Z") ?seed ?(config = "cfg")
    ?(host = Some { D.jobs = 4; cpus = 8; ocaml = "5.1.1" }) rows =
  { D.rev; date; seed; config; host; rows }

let sample () =
  file ~seed:42
    [
      row ~span:{ D.lo = 0; hi = 100; n_items = 100; chunk_size = 10 }
        ~metrics:[ ("sweep.fast", 93.0); ("sweep.escalated", 7.0); ("sweep.wall_seconds", 0.25) ]
        ~mismatches:[| { D.pattern = 0x3f80; got = 1; want = 2 } |]
        ~quarantined:[| (10, 20, "lp timeout") |]
        ();
      row ~kind:"serve" ~func:"exp" ~identity:"" ~metrics:[ ("serve.calls_per_sec", 1.5e8) ] ();
    ]

(* ------------------------------------------------------------------ *)
(* Round-trip.                                                         *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_example () =
  let t = sample () in
  match D.of_string (D.to_string t) with
  | Error msg -> Alcotest.fail msg
  | Ok t' -> Alcotest.(check bool) "round-trip equal" true (D.equal t t')

(* Strings exercise every escape class: quote, backslash, newline, tab,
   control byte, a high (non-UTF-8) byte. *)
let nasty_string =
  QCheck.Gen.(
    string_size ~gen:(oneofl [ 'a'; 'Z'; '0'; ' '; '"'; '\\'; '\n'; '\t'; '\x01'; '\xff'; '/' ])
      (int_bound 12))

let finite_float =
  QCheck.Gen.(
    map2 (fun m e -> ldexp (float_of_int m) e) (int_range (-1_000_000) 1_000_000) (int_range (-60) 60))

let gen_row =
  QCheck.Gen.(
    let* kind = oneofl [ "bench"; "sweep"; "campaign"; "serve"; "generate" ] in
    let* func = nasty_string in
    let* identity = nasty_string in
    let* span =
      oneof
        [
          return None;
          (let* lo = int_bound 50 in
           let* len = int_range 1 50 in
           return (Some { D.lo; hi = lo + len; n_items = 128; chunk_size = 8 }));
        ]
    in
    let* metrics = list_size (int_bound 6) (pair nasty_string finite_float) in
    let* mismatches =
      array_size (int_bound 3)
        (let* pattern = int_bound 0xffff in
         let* got = int_bound 0xffff in
         let* want = int_bound 0xffff in
         return { D.pattern; got; want })
    in
    let* quarantined =
      array_size (int_bound 3)
        (let* lo = int_bound 100 in
         let* len = int_range 1 10 in
         let* msg = nasty_string in
         return (lo, lo + len, msg))
    in
    return
      {
        D.kind;
        func;
        repr = "bfloat16";
        mode = "rne";
        identity;
        tables_hash = "";
        span;
        metrics;
        mismatches;
        quarantined;
      })

let gen_datafile =
  QCheck.Gen.(
    let* rev = nasty_string in
    let* date = nasty_string in
    let* seed = opt (int_bound 1000) in
    let* config = nasty_string in
    let* host =
      opt
        (let* jobs = int_range 1 64 in
         let* cpus = int_range 1 64 in
         let* ocaml = nasty_string in
         return { D.jobs; cpus; ocaml })
    in
    let* rows = list_size (int_bound 4) gen_row in
    return { D.rev; date; seed; config; host; rows })

let prop_roundtrip =
  QCheck.Test.make ~count:300 ~name:"to_string/of_string round-trip (bitwise)"
    (QCheck.make gen_datafile) (fun t ->
      match D.of_string (D.to_string t) with
      | Ok t' -> D.equal t t'
      | Error msg -> QCheck.Test.fail_report msg)

let test_write_refuses_nonfinite () =
  let t = file [ row ~metrics:[ ("sweep.bad", Float.nan) ] () ] in
  match D.to_string t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "NaN metric serialized"

(* ------------------------------------------------------------------ *)
(* Refusals on read.                                                   *)
(* ------------------------------------------------------------------ *)

let test_truncation_refused () =
  let s = D.to_string (sample ()) in
  (* Every proper prefix must be refused — never silently decoded. *)
  List.iter
    (fun keep ->
      let cut = String.sub s 0 (String.length s * keep / 100) in
      match D.of_string cut with
      | Ok _ -> Alcotest.fail (Printf.sprintf "accepted %d%% prefix" keep)
      | Error _ -> ())
    [ 10; 50; 90; 99 ]

let test_corruption_refused () =
  let s = Bytes.of_string (D.to_string (sample ())) in
  (* Flip a digit inside a metric value: still valid JSON, wrong bytes. *)
  let i = ref (-1) in
  Bytes.iteri (fun j c -> if !i < 0 && c = '9' then i := j) s;
  Bytes.set s !i '8';
  check_err "bit flip" [ "checksum mismatch" ] (D.of_string (Bytes.to_string s))

let test_future_version_refused () =
  let s = D.to_string (sample ()) in
  let needle = Printf.sprintf "\"schema_version\": %d" D.schema_version in
  let fresh =
    let rec find i =
      if i + String.length needle > String.length s then Alcotest.fail "no version field"
      else if String.sub s i (String.length needle) = needle then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub s 0 i
    ^ Printf.sprintf "\"schema_version\": %d" (D.schema_version + 1)
    ^ String.sub s (i + String.length needle) (String.length s - i - String.length needle)
  in
  check_err "future version" [ "unsupported schema version" ] (D.of_string fresh)

let test_garbage_refused () =
  check_err "garbage" [ "datafile" ] (D.of_string "{ \"rev\": \"x\" }")

(* The pre-schema bench JSON (a flat metric map, no version field) is
   not read any more: it must be refused by name, not crash or lift. *)
let test_pre_schema_refused () =
  check_err "pre-schema" [ "not a schema-v1 datafile" ]
    (D.of_string
       "{\n  \"rev\": \"0590251\",\n  \"date\": \"2026-08-01T00:00:00Z\",\n  \"metrics\": {\n    \"gen.bfloat16_exp_s\": 1.25,\n    \"lp.warm_grow_speedup\": 3.5\n  }\n}\n")

(* ------------------------------------------------------------------ *)
(* Merge rejection matrix.                                             *)
(* ------------------------------------------------------------------ *)

let span lo hi = Some { D.lo; hi; n_items = 100; chunk_size = 10 }

let test_merge_two_shards () =
  let r1 =
    row ~span:(Option.get (span 0 50))
      ~metrics:[ ("fast", 40.0); ("busy_seconds", 1.5) ]
      ~mismatches:[| { D.pattern = 3; got = 1; want = 2 } |]
      ~quarantined:[| (4, 5, "a") |]
      ()
  in
  let r2 =
    row ~span:(Option.get (span 50 100))
      ~metrics:[ ("fast", 53.0); ("busy_seconds", 2.5) ]
      ~mismatches:[| { D.pattern = 77; got = 8; want = 9 } |]
      ~quarantined:[| (60, 70, "b") |]
      ()
  in
  (* Order-insensitive: both orders give the identical row. *)
  match (D.merge_rows [ r1; r2 ], D.merge_rows [ r2; r1 ]) with
  | Ok m, Ok m' ->
      Alcotest.(check bool) "order-insensitive" true (m = m');
      let sp = Option.get m.D.span in
      Alcotest.(check int) "covers all items" 100 (sp.D.hi - sp.D.lo);
      Alcotest.(check (float 0.0)) "counters sum" 93.0 (List.assoc "fast" m.D.metrics);
      Alcotest.(check (float 1e-9)) "busy sums" 4.0 (List.assoc "busy_seconds" m.D.metrics);
      Alcotest.(check int) "mismatches concatenated" 2 (Array.length m.D.mismatches);
      Alcotest.(check bool) "ascending order" true (m.D.mismatches.(0).D.pattern = 3);
      Alcotest.(check bool) "quarantine ascending" true (m.D.quarantined.(0) = (4, 5, "a"))
  | Error msg, _ | _, Error msg -> Alcotest.fail msg

let test_merge_overlap_refused () =
  check_err "overlap" [ "overlap" ]
    (D.merge_rows [ row ~span:(Option.get (span 0 60)) (); row ~span:(Option.get (span 50 100)) () ])

let test_merge_gap_refused () =
  check_err "gap" [ "missing" ]
    (D.merge_rows [ row ~span:(Option.get (span 0 40)) (); row ~span:(Option.get (span 50 100)) () ])

let test_merge_identity_drift_refused () =
  check_err "identity drift" [ "different run" ]
    (D.merge_rows
       [
         row ~span:(Option.get (span 0 50)) ~identity:"id-a" ();
         row ~span:(Option.get (span 50 100)) ~identity:"id-b" ();
       ])

let test_merge_tables_drift_refused () =
  check_err "tables drift" [ "tables" ]
    (D.merge_rows
       [
         row ~span:(Option.get (span 0 50)) ~tables_hash:"fnv1a:aa" ();
         row ~span:(Option.get (span 50 100)) ~tables_hash:"fnv1a:bb" ();
       ])

let test_merge_geometry_drift_refused () =
  check_err "geometry drift" [ "geometry" ]
    (D.merge_rows
       [
         row ~span:{ D.lo = 0; hi = 50; n_items = 100; chunk_size = 10 } ();
         row ~span:{ D.lo = 50; hi = 100; n_items = 200; chunk_size = 10 } ();
       ])

let test_merge_whole_run_rows_refused () =
  check_err "two whole-run rows" [ "shard" ] (D.merge_rows [ row (); row () ])

let test_merge_incomplete_singleton_refused () =
  (* One shard alone does not certify the campaign. *)
  check_err "partial singleton" [ "missing" ] (D.merge_rows [ row ~span:(Option.get (span 0 50)) () ])

let test_merge_file_drift_refused () =
  let a = file ~rev:"abc" [ row ~span:(Option.get (span 0 50)) () ] in
  let b = file ~rev:"def" [ row ~span:(Option.get (span 50 100)) () ] in
  check_err "rev drift" [ "rev" ] (D.merge a b);
  let c = file ~config:"other" [ row ~span:(Option.get (span 50 100)) () ] in
  check_err "config drift" [ "config" ] (D.merge (file [ row ~span:(Option.get (span 0 50)) () ]) c)

let test_merge_files () =
  let host_b = Some { D.jobs = 1; cpus = 1; ocaml = "5.2.0" } in
  let a = file ~date:"2026-08-09T02:00:00Z" [ row ~span:(Option.get (span 0 50)) () ] in
  let b = file ~date:"2026-08-09T01:00:00Z" ~host:host_b [ row ~span:(Option.get (span 50 100)) () ] in
  match D.merge a b with
  | Error msg -> Alcotest.fail msg
  | Ok m ->
      Alcotest.(check string) "earlier date wins" "2026-08-09T01:00:00Z" m.D.date;
      Alcotest.(check bool) "host drops on disagreement" true (m.D.host = None);
      Alcotest.(check int) "rows welded" 1 (List.length m.D.rows)

let () =
  Alcotest.run "datafile"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "example round-trip" `Quick test_roundtrip_example;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          Alcotest.test_case "write refuses non-finite" `Quick test_write_refuses_nonfinite;
        ] );
      ( "refusal",
        [
          Alcotest.test_case "truncation refused" `Quick test_truncation_refused;
          Alcotest.test_case "corruption refused" `Quick test_corruption_refused;
          Alcotest.test_case "future version refused" `Quick test_future_version_refused;
          Alcotest.test_case "garbage refused" `Quick test_garbage_refused;
          Alcotest.test_case "pre-schema document refused" `Quick test_pre_schema_refused;
        ] );
      ( "merge",
        [
          Alcotest.test_case "two shards weld" `Quick test_merge_two_shards;
          Alcotest.test_case "overlap refused" `Quick test_merge_overlap_refused;
          Alcotest.test_case "gap refused" `Quick test_merge_gap_refused;
          Alcotest.test_case "identity drift refused" `Quick test_merge_identity_drift_refused;
          Alcotest.test_case "tables-hash drift refused" `Quick test_merge_tables_drift_refused;
          Alcotest.test_case "geometry drift refused" `Quick test_merge_geometry_drift_refused;
          Alcotest.test_case "whole-run rows refused" `Quick test_merge_whole_run_rows_refused;
          Alcotest.test_case "incomplete singleton refused" `Quick
            test_merge_incomplete_singleton_refused;
          Alcotest.test_case "file identity drift refused" `Quick test_merge_file_drift_refused;
          Alcotest.test_case "file-level merge" `Quick test_merge_files;
        ] );
    ]
