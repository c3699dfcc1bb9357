(* Versioned run datafiles — the one artifact schema shared by bench,
   sweep, campaign, serve and generate, with read/write/merge/diff as
   first-class operations (the Herbie datafile discipline).

   The on-disk form is JSON, machine-written with a fixed layout so the
   hand-rolled reader below suffices (this repo deliberately has no JSON
   dependency).  Like Sweep.Checkpoint's binary files, every datafile
   carries its schema version up front and an FNV-1a checksum at the
   end; [read] refuses version drift, truncation and corruption with a
   message instead of feeding garbage to a gate.  The checksum covers
   every byte before the trailing [,\n  "checksum"] field — the writer
   never emits a raw newline inside a string value (control characters
   are escaped), so that byte sequence cannot occur earlier in the file.

   [merge] exists for shards: campaign shard verdicts and multi-shard
   bench runs combine into one datafile only when their rows tile the
   item space exactly under one identity.  Overlap, gap and identity
   drift are refused — a quiet verdict over mixed or missing inputs
   would be a false certification (same stance as Campaign.Report,
   whose merge is built on [merge_rows]).

   [diff] carries the bench-gate comparison semantics (bin/bench_gate):
   per-metric worseness ratios with direction
   inferred from the metric name, degenerate baselines mapped to
   infinite ratios, and a gated metric missing from the current run
   treated as a failure rather than a skip. *)

let schema_version = 1

type mismatch = { pattern : int; got : int; want : int }
type span = { lo : int; hi : int; n_items : int; chunk_size : int }

type row = {
  kind : string;
  func : string;
  repr : string;
  mode : string;
  identity : string;
  tables_hash : string;
  span : span option;
  metrics : (string * float) list;
  mismatches : mismatch array;
  quarantined : (int * int * string) array;
}

type host = { jobs : int; cpus : int; ocaml : string }

type t = {
  rev : string;
  date : string;
  seed : int option;
  config : string;
  host : host option;
  rows : row list;
}

(* Bitwise float equality: a round-tripped datafile must be *equal*,
   not approximately equal, and NaN never survives [to_string]. *)
let equal_metric_lists a b =
  List.length a = List.length b
  && List.for_all2
       (fun (k1, v1) (k2, v2) -> k1 = k2 && Int64.bits_of_float v1 = Int64.bits_of_float v2)
       a b

let equal_row (a : row) (b : row) =
  a.kind = b.kind && a.func = b.func && a.repr = b.repr && a.mode = b.mode
  && a.identity = b.identity && a.tables_hash = b.tables_hash && a.span = b.span
  && equal_metric_lists a.metrics b.metrics
  && a.mismatches = b.mismatches && a.quarantined = b.quarantined

let equal (a : t) (b : t) =
  a.rev = b.rev && a.date = b.date && a.seed = b.seed && a.config = b.config && a.host = b.host
  && List.length a.rows = List.length b.rows
  && List.for_all2 equal_row a.rows b.rows

(* ------------------------------------------------------------------ *)
(* FNV-1a (the Sweep.Checkpoint constants, folded to 63 bits).         *)
(* ------------------------------------------------------------------ *)

let fnv_string (s : string) =
  let h = ref 0x0cbf29ce84222325 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) s;
  !h land max_int

(* ------------------------------------------------------------------ *)
(* Writer.                                                             *)
(* ------------------------------------------------------------------ *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Shortest decimal literal that parses back to the same float: %.12g
   keeps the common-case file human-readable, %.17g guarantees the
   round trip for the rest.  Non-finite values are a writer bug — the
   producers skip them with a warning (bench has since PR 7). *)
let float_lit v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Datafile: non-finite metric value %h" v);
  let s = Printf.sprintf "%.12g" v in
  if float_of_string s = v then s else Printf.sprintf "%.17g" v

let checksum_literal = ",\n  \"checksum\""

let to_string (t : t) =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  pf "{\n";
  pf "  \"schema_version\": %d,\n" schema_version;
  pf "  \"rev\": \"%s\",\n" (escape t.rev);
  pf "  \"date\": \"%s\",\n" (escape t.date);
  (match t.seed with Some s -> pf "  \"seed\": %d,\n" s | None -> ());
  pf "  \"config\": \"%s\",\n" (escape t.config);
  (match t.host with
  | Some h -> pf "  \"host\": { \"jobs\": %d, \"cpus\": %d, \"ocaml\": \"%s\" },\n" h.jobs h.cpus (escape h.ocaml)
  | None -> ());
  pf "  \"rows\": [";
  List.iteri
    (fun i (r : row) ->
      if i > 0 then pf ",";
      pf "\n    {\n";
      pf "      \"kind\": \"%s\",\n" (escape r.kind);
      pf "      \"func\": \"%s\",\n" (escape r.func);
      pf "      \"repr\": \"%s\",\n" (escape r.repr);
      pf "      \"mode\": \"%s\",\n" (escape r.mode);
      pf "      \"identity\": \"%s\",\n" (escape r.identity);
      pf "      \"tables_hash\": \"%s\",\n" (escape r.tables_hash);
      (match r.span with
      | Some s ->
          pf "      \"span\": { \"lo\": %d, \"hi\": %d, \"n_items\": %d, \"chunk_size\": %d },\n"
            s.lo s.hi s.n_items s.chunk_size
      | None -> ());
      pf "      \"metrics\": {";
      List.iteri
        (fun j (k, v) ->
          if j > 0 then pf ",";
          pf "\n        \"%s\": %s" (escape k) (float_lit v))
        r.metrics;
      pf "%s},\n" (if r.metrics = [] then "" else "\n      ");
      pf "      \"mismatches\": [";
      Array.iteri
        (fun j (m : mismatch) ->
          if j > 0 then pf ",";
          pf "\n        { \"pattern\": %d, \"got\": %d, \"want\": %d }" m.pattern m.got m.want)
        r.mismatches;
      pf "%s],\n" (if r.mismatches = [||] then "" else "\n      ");
      pf "      \"quarantined\": [";
      Array.iteri
        (fun j (lo, hi, reason) ->
          if j > 0 then pf ",";
          pf "\n        { \"lo\": %d, \"hi\": %d, \"reason\": \"%s\" }" lo hi (escape reason))
        r.quarantined;
      pf "%s]\n" (if r.quarantined = [||] then "" else "\n      ");
      pf "    }")
    t.rows;
  pf "%s]" (if t.rows = [] then "" else "\n  ");
  let body = Buffer.contents b in
  body ^ Printf.sprintf "%s: \"fnv1a:%016x\"\n}\n" checksum_literal (fnv_string body)

let write ~path (t : t) =
  let s = to_string t in
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc s;
  close_out oc;
  Sys.rename tmp path

(* ------------------------------------------------------------------ *)
(* Generic JSON reader (machine-written subset: objects, arrays,       *)
(* strings with short escapes, numbers, true/false/null).              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

module Json = struct
  type v =
    | Str of string
    | Num of string  (* literal text; converted on demand *)
    | Obj of (string * v) list
    | Arr of v list
    | Bool of bool
    | Null

  exception Fail of string

  let parse (s : string) : (v, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Fail msg) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while !pos < n && (s.[!pos] = ' ' || s.[!pos] = '\n' || s.[!pos] = '\t' || s.[!pos] = '\r') do
        incr pos
      done
    in
    let expect c =
      if !pos >= n || s.[!pos] <> c then
        fail
          (Printf.sprintf "expected %C at byte %d, found %s" c !pos
             (if !pos >= n then "end of file" else Printf.sprintf "%C" s.[!pos]));
      incr pos
    in
    let parse_string () =
      expect '"';
      let b = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> incr pos
          | '\\' ->
              if !pos + 1 >= n then fail "unterminated escape";
              (match s.[!pos + 1] with
              | '"' -> Buffer.add_char b '"'
              | '\\' -> Buffer.add_char b '\\'
              | '/' -> Buffer.add_char b '/'
              | 'n' -> Buffer.add_char b '\n'
              | 't' -> Buffer.add_char b '\t'
              | 'r' -> Buffer.add_char b '\r'
              | 'b' -> Buffer.add_char b '\b'
              | 'f' -> Buffer.add_char b '\012'
              | 'u' ->
                  if !pos + 5 >= n then fail "unterminated \\u escape";
                  let hex = String.sub s (!pos + 2) 4 in
                  let code =
                    match int_of_string_opt ("0x" ^ hex) with
                    | Some c -> c
                    | None -> fail (Printf.sprintf "bad \\u escape %S" hex)
                  in
                  if code > 0xff then fail (Printf.sprintf "\\u escape out of byte range: %S" hex);
                  Buffer.add_char b (Char.chr code);
                  pos := !pos + 4
              | c -> fail (Printf.sprintf "bad escape \\%c" c));
              pos := !pos + 2;
              go ()
          | c ->
              Buffer.add_char b c;
              incr pos;
              go ()
      in
      go ();
      Buffer.contents b
    in
    let parse_number () =
      let isnum c = (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E' in
      let start = !pos in
      while !pos < n && isnum s.[!pos] do
        incr pos
      done;
      if !pos = start then fail (Printf.sprintf "expected a number at byte %d" start);
      let lit = String.sub s start (!pos - start) in
      if float_of_string_opt lit = None then fail (Printf.sprintf "malformed number %S" lit);
      lit
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word then begin
        pos := !pos + String.length word;
        v
      end
      else fail (Printf.sprintf "bad literal at byte %d" !pos)
    in
    let rec value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of file"
      | Some '"' -> Str (parse_string ())
      | Some '{' ->
          incr pos;
          skip_ws ();
          if peek () = Some '}' then begin
            incr pos;
            Obj []
          end
          else begin
            let rec members acc =
              skip_ws ();
              let k = parse_string () in
              skip_ws ();
              expect ':';
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  members ((k, v) :: acc)
              | Some '}' ->
                  incr pos;
                  List.rev ((k, v) :: acc)
              | _ -> fail (Printf.sprintf "expected ',' or '}' at byte %d" !pos)
            in
            Obj (members [])
          end
      | Some '[' ->
          incr pos;
          skip_ws ();
          if peek () = Some ']' then begin
            incr pos;
            Arr []
          end
          else begin
            let rec elements acc =
              let v = value () in
              skip_ws ();
              match peek () with
              | Some ',' ->
                  incr pos;
                  elements (v :: acc)
              | Some ']' ->
                  incr pos;
                  List.rev (v :: acc)
              | _ -> fail (Printf.sprintf "expected ',' or ']' at byte %d" !pos)
            in
            Arr (elements [])
          end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some c -> if c = '-' || (c >= '0' && c <= '9') then Num (parse_number ()) else fail (Printf.sprintf "unexpected %C at byte %d" c !pos)
    in
    try
      let v = value () in
      skip_ws ();
      if !pos <> n then fail (Printf.sprintf "trailing garbage at byte %d" !pos);
      Ok v
    with Fail msg -> Error msg

  let as_obj what = function Obj kvs -> kvs | _ -> raise (Fail (what ^ ": expected an object"))
  let as_arr what = function Arr vs -> vs | _ -> raise (Fail (what ^ ": expected an array"))
  let as_str what = function Str s -> s | _ -> raise (Fail (what ^ ": expected a string"))

  let as_int what = function
    | Num lit -> (
        match int_of_string_opt lit with
        | Some v -> v
        | None -> raise (Fail (Printf.sprintf "%s: expected an integer, found %S" what lit)))
    | _ -> raise (Fail (what ^ ": expected an integer"))

  let as_float what = function
    | Num lit -> float_of_string lit  (* parse_number validated the literal *)
    | _ -> raise (Fail (what ^ ": expected a number"))

  let field what name kvs =
    match List.assoc_opt name kvs with
    | Some v -> v
    | None -> raise (Fail (Printf.sprintf "%s: missing field %S" what name))
end

(* ------------------------------------------------------------------ *)
(* Legacy BENCH_<rev>.json reader (the pre-schema flat metric map).    *)
(* Committed baselines must stay readable forever.                     *)
(* ------------------------------------------------------------------ *)

let family key = match String.index_opt key '.' with Some i -> String.sub key 0 i | None -> key

let rows_of_metrics ~kind metrics =
  let groups = ref [] in
  (* first-appearance order of families, metrics kept in file order *)
  List.iter
    (fun (k, v) ->
      let fam = family k in
      match List.assoc_opt fam !groups with
      | Some cell -> cell := (k, v) :: !cell
      | None -> groups := !groups @ [ (fam, ref [ (k, v) ]) ])
    metrics;
  List.map
    (fun (fam, cell) ->
      {
        kind;
        func = fam;
        repr = "";
        mode = "";
        identity = "";
        tables_hash = "";
        span = None;
        metrics = List.rev !cell;
        mismatches = [||];
        quarantined = [||];
      })
    !groups

module Legacy = struct
  let parse_metrics (s : string) : (string * float) list =
    let n = String.length s in
    let fail msg = raise (Parse_error msg) in
    let find_sub sub from =
      let m = String.length sub in
      let rec go i =
        if i + m > n then fail (Printf.sprintf "missing %S" sub)
        else if String.sub s i m = sub then i
        else go (i + 1)
      in
      go from
    in
    let skip_ws i =
      let rec go i = if i < n && (s.[i] = ' ' || s.[i] = '\n' || s.[i] = '\t' || s.[i] = '\r') then go (i + 1) else i in
      go i
    in
    (* position just after the '{' opening the metrics object *)
    let start =
      let k = find_sub "\"metrics\"" 0 in
      let c = skip_ws (find_sub ":" k + 1) in
      if c >= n || s.[c] <> '{' then fail "metrics is not an object";
      c + 1
    in
    let parse_string i =
      if i >= n || s.[i] <> '"' then fail "expected string";
      let rec go j = if j >= n then fail "unterminated string" else if s.[j] = '"' then j else go (j + 1) in
      let e = go (i + 1) in
      (String.sub s (i + 1) (e - i - 1), e + 1)
    in
    (* Number parse failures name the metric they sit under: a malformed
       value in a machine-written file is almost always one bad metric
       (e.g. a nan that slipped past the writer), and "expected number"
       with no key means grepping the whole file by hand. *)
    let parse_number ~key i =
      let isnum c = (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E' in
      let rec go j = if j < n && isnum s.[j] then go (j + 1) else j in
      let e = go i in
      if e = i then
        fail
          (Printf.sprintf "metric %S: expected a number, found %s" key
             (if i >= n then "end of file" else Printf.sprintf "%C" s.[i]));
      let lit = String.sub s i (e - i) in
      match float_of_string_opt lit with
      | Some v -> (v, e)
      | None -> fail (Printf.sprintf "metric %S: malformed number %S" key lit)
    in
    let rec entries i acc =
      let i = skip_ws i in
      if i >= n then fail "unterminated metrics object"
      else if s.[i] = '}' then List.rev acc
      else if s.[i] = ',' then entries (i + 1) acc
      else begin
        let key, i = parse_string i in
        let i = skip_ws i in
        if i >= n || s.[i] <> ':' then fail (Printf.sprintf "metric %S: expected ':'" key);
        let v, i = parse_number ~key (skip_ws (i + 1)) in
        entries i ((key, v) :: acc)
      end
    in
    entries start []

  (* Top-level scalar header fields: everything before the "metrics"
     key, in file order.  String values lose their quotes; numbers keep
     their literal text (the header is display-only, never compared). *)
  let parse_header (s : string) : (string * string) list =
    let n = String.length s in
    let fail msg = raise (Parse_error msg) in
    let skip_ws i =
      let rec go i =
        if i < n && (s.[i] = ' ' || s.[i] = '\n' || s.[i] = '\t' || s.[i] = '\r') then go (i + 1) else i
      in
      go i
    in
    let parse_string i =
      if i >= n || s.[i] <> '"' then fail "expected string";
      let rec go j = if j >= n then fail "unterminated string" else if s.[j] = '"' then j else go (j + 1) in
      let e = go (i + 1) in
      (String.sub s (i + 1) (e - i - 1), e + 1)
    in
    let scalar i =
      if i < n && s.[i] = '"' then parse_string i
      else begin
        let isnum c = (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E' in
        let rec go j = if j < n && isnum s.[j] then go (j + 1) else j in
        let e = go i in
        if e = i then fail "header: expected a scalar value";
        (String.sub s i (e - i), e)
      end
    in
    let start =
      let i = skip_ws 0 in
      if i >= n || s.[i] <> '{' then fail "not a JSON object";
      i + 1
    in
    let rec entries i acc =
      let i = skip_ws i in
      if i >= n then fail "unterminated header"
      else if s.[i] = '}' then List.rev acc
      else if s.[i] = ',' then entries (i + 1) acc
      else begin
        let key, i = parse_string i in
        if key = "metrics" then List.rev acc
        else begin
          let i = skip_ws i in
          if i >= n || s.[i] <> ':' then fail (Printf.sprintf "header %S: expected ':'" key);
          let v, i = scalar (skip_ws (i + 1)) in
          entries i ((key, v) :: acc)
        end
      end
    in
    entries start []

  let lift (s : string) : (t, string) result =
    match (parse_header s, parse_metrics s) with
    | exception Parse_error msg -> Error ("legacy bench json: " ^ msg)
    | header, metrics ->
        let field k = List.assoc_opt k header in
        let host =
          match (field "jobs", field "cpus", field "ocaml") with
          | Some j, Some c, Some o -> (
              match (int_of_string_opt j, int_of_string_opt c) with
              | Some jobs, Some cpus -> Some { jobs; cpus; ocaml = o }
              | _ -> None)
          | _ -> None
        in
        Ok
          {
            rev = Option.value (field "rev") ~default:"unknown";
            date = Option.value (field "date") ~default:"";
            seed = None;
            config = "";
            host;
            rows = rows_of_metrics ~kind:"bench" metrics;
          }
end

(* ------------------------------------------------------------------ *)
(* Strict reader.                                                      *)
(* ------------------------------------------------------------------ *)

let contains_sub sub s =
  let m = String.length sub and n = String.length s in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let rindex_sub sub s =
  let m = String.length sub in
  let rec go i = if i < 0 then None else if String.sub s i m = sub then Some i else go (i - 1) in
  go (String.length s - m)

let span_of_json what kvs =
  {
    lo = Json.as_int (what ^ ".lo") (Json.field what "lo" kvs);
    hi = Json.as_int (what ^ ".hi") (Json.field what "hi" kvs);
    n_items = Json.as_int (what ^ ".n_items") (Json.field what "n_items" kvs);
    chunk_size = Json.as_int (what ^ ".chunk_size") (Json.field what "chunk_size" kvs);
  }

let row_of_json i v =
  let what = Printf.sprintf "row %d" i in
  let kvs = Json.as_obj what v in
  let str name = Json.as_str (what ^ "." ^ name) (Json.field what name kvs) in
  {
    kind = str "kind";
    func = str "func";
    repr = str "repr";
    mode = str "mode";
    identity = str "identity";
    tables_hash = str "tables_hash";
    span =
      (match List.assoc_opt "span" kvs with
      | None -> None
      | Some v -> Some (span_of_json (what ^ ".span") (Json.as_obj (what ^ ".span") v)));
    metrics =
      List.map
        (fun (k, v) -> (k, Json.as_float (Printf.sprintf "%s metric %S" what k) v))
        (Json.as_obj (what ^ ".metrics") (Json.field what "metrics" kvs));
    mismatches =
      Array.of_list
        (List.map
           (fun v ->
             let m = Json.as_obj (what ^ ".mismatches") v in
             let int name = Json.as_int (what ^ ".mismatches." ^ name) (Json.field what name m) in
             { pattern = int "pattern"; got = int "got"; want = int "want" })
           (Json.as_arr (what ^ ".mismatches") (Json.field what "mismatches" kvs)));
    quarantined =
      Array.of_list
        (List.map
           (fun v ->
             let q = Json.as_obj (what ^ ".quarantined") v in
             let int name = Json.as_int (what ^ ".quarantined." ^ name) (Json.field what name q) in
             ( int "lo",
               int "hi",
               Json.as_str (what ^ ".quarantined.reason") (Json.field what "reason" q) ))
           (Json.as_arr (what ^ ".quarantined") (Json.field what "quarantined" kvs)));
  }

let of_string (s : string) : (t, string) result =
  if not (contains_sub "\"schema_version\"" s) then
    if contains_sub "\"metrics\"" s then Legacy.lift s
    else Error "datafile: neither a schema-v1 datafile nor a legacy bench json"
  else
    match Json.parse s with
    | Error msg -> Error ("datafile: " ^ msg)
    | Ok doc -> (
        try
          let kvs = Json.as_obj "datafile" doc in
          let v = Json.as_int "schema_version" (Json.field "datafile" "schema_version" kvs) in
          if v <> schema_version then
            Error (Printf.sprintf "datafile: unsupported schema version %d (want %d)" v schema_version)
          else begin
            (* Checksum covers every byte before the trailing field; the
               writer escapes raw newlines inside strings, so the last
               occurrence of the literal is the real field. *)
            let sum_field = Json.as_str "checksum" (Json.field "datafile" "checksum" kvs) in
            let expected =
              match Scanf.sscanf_opt sum_field "fnv1a:%x%!" (fun x -> x) with
              | Some x -> x
              | None -> raise (Json.Fail (Printf.sprintf "malformed checksum %S" sum_field))
            in
            match rindex_sub checksum_literal s with
            | None -> Error "datafile: truncated (no checksum field)"
            | Some i ->
                if fnv_string (String.sub s 0 i) <> expected then
                  Error "datafile: checksum mismatch (corrupted datafile)"
                else
                  Ok
                    {
                      rev = Json.as_str "rev" (Json.field "datafile" "rev" kvs);
                      date = Json.as_str "date" (Json.field "datafile" "date" kvs);
                      seed =
                        (match List.assoc_opt "seed" kvs with
                        | None -> None
                        | Some v -> Some (Json.as_int "seed" v));
                      config = Json.as_str "config" (Json.field "datafile" "config" kvs);
                      host =
                        (match List.assoc_opt "host" kvs with
                        | None -> None
                        | Some v ->
                            let h = Json.as_obj "host" v in
                            Some
                              {
                                jobs = Json.as_int "host.jobs" (Json.field "host" "jobs" h);
                                cpus = Json.as_int "host.cpus" (Json.field "host" "cpus" h);
                                ocaml = Json.as_str "host.ocaml" (Json.field "host" "ocaml" h);
                              });
                      rows =
                        List.mapi row_of_json (Json.as_arr "rows" (Json.field "datafile" "rows" kvs));
                    }
          end
        with Json.Fail msg -> Error ("datafile: " ^ msg))

let read ~path : (t, string) result =
  match open_in_bin path with
  | exception Sys_error msg -> Error msg
  | ic ->
      let len = in_channel_length ic in
      let s = really_input_string ic len in
      close_in ic;
      of_string s

(* ------------------------------------------------------------------ *)
(* Merge.                                                              *)
(* ------------------------------------------------------------------ *)

let merge_rows (rows : row list) : (row, string) result =
  match rows with
  | [] -> Error "datafile merge: no rows"
  | first :: _ -> (
      let err = ref None in
      let fail fmt = Printf.ksprintf (fun m -> if !err = None then err := Some m) fmt in
      List.iter
        (fun (r : row) ->
          if (r.kind, r.func, r.repr, r.mode) <> (first.kind, first.func, first.repr, first.mode)
          then
            fail "datafile merge: rows disagree on key (%s/%s/%s/%s vs %s/%s/%s/%s)" r.kind r.func
              r.repr r.mode first.kind first.func first.repr first.mode
          else if r.identity <> first.identity then
            fail "datafile merge: row belongs to a different run\n  row: %s\n  run: %s" r.identity
              first.identity
          else if r.tables_hash <> first.tables_hash then
            fail "datafile merge: rows built from different tables (%s vs %s)" r.tables_hash
              first.tables_hash)
        rows;
      match !err with
      | Some m -> Error m
      | None -> (
          let spans = List.filter_map (fun (r : row) -> r.span) rows in
          if List.length spans <> List.length rows then
            if List.length rows = 1 then Ok first
            else Error "datafile merge: cannot merge whole-run rows (no shard spans)"
          else begin
            let sorted =
              List.stable_sort
                (fun (a : row) b ->
                  compare (Option.get a.span).lo (Option.get b.span).lo)
                rows
            in
            let fspan = (Option.get first.span) in
            List.iter
              (fun (r : row) ->
                let s = Option.get r.span in
                if s.n_items <> fspan.n_items || s.chunk_size <> fspan.chunk_size then
                  fail
                    "datafile merge: shard [%d,%d) disagrees on geometry (%d items / %d per chunk, want %d / %d)"
                    s.lo s.hi s.n_items s.chunk_size fspan.n_items fspan.chunk_size
                else if s.lo < 0 || s.hi > s.n_items || s.lo >= s.hi then
                  fail "datafile merge: bad shard range [%d,%d)" s.lo s.hi)
              sorted;
            let cursor = ref 0 in
            List.iter
              (fun (r : row) ->
                let s = Option.get r.span in
                if s.lo < !cursor then fail "datafile merge: shard ranges overlap at item %d" s.lo
                else if s.lo > !cursor then
                  fail "datafile merge: missing shard range [%d,%d)" !cursor s.lo;
                cursor := Stdlib.max !cursor s.hi)
              sorted;
            if !err = None && !cursor < fspan.n_items then
              fail "datafile merge: missing shard range [%d,%d)" !cursor fspan.n_items;
            match !err with
            | Some m -> Error m
            | None ->
                (* Metrics sum per key (shard counters, busy seconds); key
                   order is first appearance across ascending shards. *)
                let keys = ref [] in
                List.iter
                  (fun (r : row) ->
                    List.iter (fun (k, _) -> if not (List.mem k !keys) then keys := !keys @ [ k ]) r.metrics)
                  sorted;
                let metrics =
                  List.map
                    (fun k ->
                      ( k,
                        List.fold_left
                          (fun acc (r : row) ->
                            match List.assoc_opt k r.metrics with Some v -> acc +. v | None -> acc)
                          0.0 sorted ))
                    !keys
                in
                Ok
                  {
                    first with
                    span = Some { lo = 0; hi = fspan.n_items; n_items = fspan.n_items; chunk_size = fspan.chunk_size };
                    metrics;
                    mismatches = Array.concat (List.map (fun (r : row) -> r.mismatches) sorted);
                    quarantined = Array.concat (List.map (fun (r : row) -> r.quarantined) sorted);
                  }
          end))

let merge (a : t) (b : t) : (t, string) result =
  if a.rev <> b.rev then
    Error (Printf.sprintf "datafile merge: rev drift (%S vs %S)" a.rev b.rev)
  else if a.config <> b.config then
    Error (Printf.sprintf "datafile merge: config drift (%S vs %S)" a.config b.config)
  else if a.seed <> b.seed then Error "datafile merge: seed drift"
  else begin
    let keys = ref [] in
    List.iter
      (fun (r : row) ->
        let k = (r.kind, r.func, r.repr, r.mode) in
        if not (List.mem k !keys) then keys := !keys @ [ k ])
      (a.rows @ b.rows);
    let err = ref None in
    let rows =
      List.filter_map
        (fun key ->
          let group =
            List.filter (fun (r : row) -> (r.kind, r.func, r.repr, r.mode) = key) (a.rows @ b.rows)
          in
          match group with
          | [ r ] -> Some r  (* present on one side only: passes through *)
          | group -> (
              match merge_rows group with
              | Ok r -> Some r
              | Error m ->
                  if !err = None then err := Some m;
                  None))
        !keys
    in
    match !err with
    | Some m -> Error m
    | None ->
        Ok
          {
            rev = a.rev;
            date = Stdlib.min a.date b.date;
            seed = a.seed;
            config = a.config;
            host = (if a.host = b.host then a.host else None);
            rows;
          }
  end

(* ------------------------------------------------------------------ *)
(* Diff: the bench-gate comparison semantics.                          *)
(* ------------------------------------------------------------------ *)

type direction = Lower_better | Higher_better

(* Infer the improvement direction from the metric name, matching the
   naming convention of bench/main.ml: times end in _ns/_s, ratios
   contain "speedup", throughputs contain "per_sec", percentages of a
   good thing (fast-path share, report agreement) end in "_pct";
   everything else (pivot/solve/fallback counts) is work and should not
   grow. *)
let direction_of key =
  if contains_sub "speedup" key || contains_sub "per_sec" key || contains_sub "_pct" key then
    Higher_better
  else Lower_better

let gated key =
  let pfx p = String.length key >= String.length p && String.sub key 0 (String.length p) = p in
  pfx "gen." || pfx "lp." || pfx "round." || pfx "sweep." || pfx "campaign." || pfx "serve."
  || pfx "prog."

type verdict = {
  key : string;
  base : float option;
  curr : float option;
  ratio : float;
  gated : bool;
  regressed : bool;
}

(* Worseness ratio with the degenerate baselines handled.  A gated work
   counter (fallbacks, pivots) legitimately sits at 0.0 until a change
   makes it grow — growth from a zero baseline is exactly the regression
   such a metric exists to catch, so it maps to [infinity], not to the
   old silently-passing 1.0.  Symmetrically, a speedup that collapses to
   zero (or a nonsense negative estimate) is a regression however large
   the baseline was. *)
let worse_ratio ~dir ~base ~curr =
  match dir with
  | Lower_better ->
      if base > 0.0 then curr /. base
      else if curr > 0.0 then infinity (* growth from a zero baseline *)
      else 1.0
  | Higher_better ->
      if curr > 0.0 then base /. curr
      else if base > 0.0 then infinity (* speedup collapsed to <= 0 *)
      else 1.0

(* [diff_metrics ~threshold base curr] pairs the two runs up, in
   baseline order.  A *gated* metric present in the baseline but absent
   from the current run is a failure, not a skip: renaming or dropping a
   gated benchmark would otherwise un-gate it silently.  Non-gated
   vanished metrics and metrics new in the current run are reported as
   informational. *)
let diff_metrics ?(threshold = 0.25) (base : (string * float) list)
    (curr : (string * float) list) : verdict list =
  let paired =
    List.map
      (fun (key, b) ->
        let g = gated key in
        match List.assoc_opt key curr with
        | None ->
            (* Vanished: only a failure where the gate depended on it. *)
            { key; base = Some b; curr = None; ratio = infinity; gated = g; regressed = g }
        | Some c ->
            let ratio = worse_ratio ~dir:(direction_of key) ~base:b ~curr:c in
            { key; base = Some b; curr = Some c; ratio; gated = g; regressed = g && ratio > 1.0 +. threshold })
      base
  in
  let fresh =
    List.filter_map
      (fun (key, c) ->
        if List.mem_assoc key base then None
        else
          (* New metric: no baseline to judge against; it becomes gated
             once this run's datafile is committed as the next baseline. *)
          Some { key; base = None; curr = Some c; ratio = 1.0; gated = gated key; regressed = false })
      curr
  in
  paired @ fresh

let metrics (t : t) = List.concat_map (fun (r : row) -> r.metrics) t.rows

let diff ?threshold (base : t) (curr : t) = diff_metrics ?threshold (metrics base) (metrics curr)

let any_regression verdicts = List.exists (fun v -> v.regressed) verdicts

let verdict_status v =
  match (v.base, v.curr) with
  | _, None when v.regressed -> "MISSING (gated metric vanished — renamed or dropped?)"
  | _, None -> "missing (info)"
  | None, _ -> "new (no baseline yet)"
  | Some _, Some _ ->
      if v.regressed then "REGRESSED"
      else if not v.gated then "info"
      else if v.ratio > 1.0 then "worse (within threshold)"
      else "ok"

let pp_diff fmt ~threshold verdicts =
  Format.fprintf fmt "%-45s %12s %12s %8s  %s@." "metric" "baseline" "current" "ratio" "status";
  List.iter
    (fun v ->
      let num = function Some x -> Printf.sprintf "%12.3f" x | None -> Printf.sprintf "%12s" "-" in
      Format.fprintf fmt "%-45s %s %s %7.2fx  %s@." v.key (num v.base) (num v.curr) v.ratio
        (verdict_status v))
    verdicts;
  let bad = List.filter (fun v -> v.regressed) verdicts in
  if bad = [] then
    Format.fprintf fmt "gate: OK (%d metrics compared, threshold %.0f%%)@." (List.length verdicts)
      (100.0 *. threshold)
  else begin
    let missing, slow = List.partition (fun v -> v.curr = None) bad in
    if slow <> [] then
      Format.fprintf fmt "gate: FAIL — %d gated metric(s) regressed more than %.0f%%@."
        (List.length slow) (100.0 *. threshold);
    if missing <> [] then
      Format.fprintf fmt "gate: FAIL — %d gated metric(s) missing from the current run@."
        (List.length missing)
  end

(* ------------------------------------------------------------------ *)
(* Host comparability.                                                 *)
(* ------------------------------------------------------------------ *)

let host_mismatch (a : t) (b : t) : string list =
  match (a.host, b.host) with
  | None, None -> [ "neither run records its machine context (jobs/cpus/ocaml)" ]
  | None, Some _ -> [ "baseline records no machine context (pre-schema file?)" ]
  | Some _, None -> [ "current run records no machine context" ]
  | Some ha, Some hb ->
      let r = ref [] in
      if ha.jobs <> hb.jobs then
        r := !r @ [ Printf.sprintf "jobs differ: %d vs %d" ha.jobs hb.jobs ];
      if ha.cpus <> hb.cpus then
        r := !r @ [ Printf.sprintf "cpus differ: %d vs %d" ha.cpus hb.cpus ];
      if ha.ocaml <> hb.ocaml then
        r := !r @ [ Printf.sprintf "ocaml differs: %s vs %s" ha.ocaml hb.ocaml ];
      !r

let header_fields (t : t) : (string * string) list =
  [ ("rev", t.rev); ("date", t.date) ]
  @ (match t.seed with Some s -> [ ("seed", string_of_int s) ] | None -> [])
  @ (if t.config = "" then [] else [ ("config", t.config) ])
  @
  match t.host with
  | Some h ->
      [ ("jobs", string_of_int h.jobs); ("cpus", string_of_int h.cpus); ("ocaml", h.ocaml) ]
  | None -> []

(* ------------------------------------------------------------------ *)
(* Markdown rendering (PR review, $GITHUB_STEP_SUMMARY).               *)
(* ------------------------------------------------------------------ *)

let markdown_diff ?(threshold = 0.25) (base : t) (curr : t) : string =
  let b = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  let host_str = function
    | Some h -> Printf.sprintf "%d jobs / %d cpus / ocaml %s" h.jobs h.cpus h.ocaml
    | None -> "(not recorded)"
  in
  pf "### Datafile diff\n\n";
  pf "| | baseline | current |\n|---|---|---|\n";
  pf "| rev | `%s` | `%s` |\n" base.rev curr.rev;
  pf "| date | %s | %s |\n" base.date curr.date;
  pf "| host | %s | %s |\n\n" (host_str base.host) (host_str curr.host);
  (match host_mismatch base curr with
  | [] -> ()
  | reasons ->
      pf "> **Warning** — runs are not host-comparable, ratios may be noise: %s\n\n"
        (String.concat "; " reasons));
  let verdicts = diff ~threshold base curr in
  (* Progressive Pareto metrics (prefix degree, fast-tier share, tiered
     latency) get their own table: they describe a cost–accuracy
     trade-off, not a single scalar to eyeball among the others. *)
  let is_prog v = String.length v.key >= 5 && String.sub v.key 0 5 = "prog." in
  let prog_vs, main_vs = List.partition is_prog verdicts in
  let table vs =
    pf "| metric | baseline | current | ratio | status |\n|---|---:|---:|---:|---|\n";
    List.iter
      (fun v ->
        let num = function Some x -> Printf.sprintf "%.3f" x | None -> "—" in
        let status = verdict_status v in
        let status = if v.regressed then "**" ^ status ^ "**" else status in
        pf "| `%s` | %s | %s | %.2fx | %s |\n" v.key (num v.base) (num v.curr) v.ratio status)
      vs;
    pf "\n"
  in
  table main_vs;
  if prog_vs <> [] then begin
    pf "#### Progressive Pareto (prefix tier)\n\n";
    table prog_vs
  end;
  let bad = List.filter (fun v -> v.regressed) verdicts in
  if bad = [] then
    pf "**gate: OK** (%d metrics compared, threshold %.0f%%)\n" (List.length verdicts)
      (100.0 *. threshold)
  else begin
    let missing, slow = List.partition (fun v -> v.curr = None) bad in
    if slow <> [] then
      pf "**gate: FAIL** — %d gated metric(s) regressed more than %.0f%%\n" (List.length slow)
        (100.0 *. threshold);
    if missing <> [] then
      pf "**gate: FAIL** — %d gated metric(s) missing from the current run\n" (List.length missing)
  end;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Canonical campaign report text.  Byte-compatible with               *)
(* Campaign.Report.text: a campaign must reproduce this at any shard   *)
(* count, any worker count, fast or oracle verifier — so it carries no *)
(* timings, shard counts or verifier counters.                         *)
(* ------------------------------------------------------------------ *)

let campaign_text (r : row) : string =
  let b = Buffer.create 256 in
  Buffer.add_string b r.identity;
  Buffer.add_char b '\n';
  Array.iter
    (fun (x : mismatch) ->
      Buffer.add_string b (Printf.sprintf "mismatch 0x%x got 0x%x want 0x%x\n" x.pattern x.got x.want))
    r.mismatches;
  Array.iter
    (fun (lo, hi, msg) ->
      Buffer.add_string b (Printf.sprintf "quarantined [%d,%d): %s\n" lo hi msg))
    r.quarantined;
  let n_items = match r.span with Some s -> s.n_items | None -> 0 in
  Buffer.add_string b
    (Printf.sprintf "total %d mismatches, %d quarantined ranges over %d points\n"
       (Array.length r.mismatches) (Array.length r.quarantined) n_items);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Producer helpers.                                                   *)
(* ------------------------------------------------------------------ *)

let timestamp () =
  let tm = Unix.gmtime (Unix.gettimeofday ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ -> "unknown"
  with _ -> "unknown"
