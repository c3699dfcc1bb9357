(** Versioned run datafiles: the one schema every subsystem's results
    land in, with read/write/merge as first-class operations.

    A datafile is a JSON document (schema version {!schema_version})
    capturing one run's identity (rev, date, seed, config), its machine
    context (jobs/cpus/ocaml), and rows of (kind, function, repr, mode)
    results — generation statistics, sweep verdicts, serving
    SLOs, benchmark metrics.  The encoding carries a trailing FNV-1a
    checksum over the body; {!read} refuses truncated, corrupted,
    foreign or future-versioned files with a message instead of
    comparing garbage (the {!Sweep.Checkpoint} discipline).

    [merge] welds shard datafiles into one run and is deliberately
    paranoid: rows of the same (kind, func, repr, mode) must agree on
    identity and geometry and their spans must tile the item space
    exactly — overlap, gap or identity drift is refused, never papered
    over.  Comparing two runs is [bench/suite compare]'s job: it judges
    with the polarities and bounds declared in BENCHMARK.json. *)

val schema_version : int

type mismatch = { pattern : int; got : int; want : int }

(** Shard coordinates of a row: this row covers items [lo, hi) of a
    [n_items]-item run cut into [chunk_size]-item chunks.  Rows without
    a span are whole-run rows and can never be merged with a sibling. *)
type span = { lo : int; hi : int; n_items : int; chunk_size : int }

type row = {
  kind : string;  (* "benchmark" | "generate" | "sweep" *)
  func : string;
  repr : string;
  mode : string;
  identity : string;  (* run identity; must agree across merged shards ("" = none) *)
  tables_hash : string;  (* generated-table fingerprint ("" = unknown) *)
  span : span option;
  metrics : (string * float) list;  (* finite values only; {!write} refuses NaN/inf *)
  mismatches : mismatch array;
  quarantined : (int * int * string) array;  (* item ranges [lo, hi), ascending *)
}

type host = { jobs : int; cpus : int; ocaml : string }

type t = {
  rev : string;
  date : string;  (* ISO-8601 UTC; lexicographic order = chronological *)
  seed : int option;
  config : string;  (* free-form run configuration fingerprint *)
  host : host option;  (* None: not recorded *)
  rows : row list;
}

(** Structural equality with bitwise float comparison (round-trip
    witness; NaN never appears in a written file). *)
val equal : t -> t -> bool

(* ------------------------------------------------------------------ *)
(* Read / write.                                                       *)
(* ------------------------------------------------------------------ *)

val to_string : t -> string
(** Serialize.  @raise Invalid_argument on a non-finite metric value. *)

val of_string : string -> (t, string) result
(** Strict decode: schema version must equal {!schema_version} and the
    trailing checksum must match.  A document with no
    ["schema_version"] field (such as a pre-schema flat metric map) is
    refused as not a schema-v1 datafile. *)

val write : path:string -> t -> unit
(** Atomic (tmp-then-rename) write of {!to_string}. *)

val read : path:string -> (t, string) result

(* ------------------------------------------------------------------ *)
(* Merge.                                                              *)
(* ------------------------------------------------------------------ *)

val merge_rows : row list -> (row, string) result
(** Combine shard rows of one (kind, func, repr, mode) group.
    Order-insensitive.  Refuses: empty input, mixed group keys,
    identity or tables-hash drift, geometry disagreement, span
    overlap, and any gap in the tiling of [0, n_items) — a quiet
    verdict over missing inputs would be a false certification.
    Metrics are summed per key (shard counters and busy seconds
    aggregate); mismatches and quarantined ranges concatenate in
    ascending span order.  Span-less rows merge only as a singleton:
    two whole-run rows of the same key are an overlap. *)

val merge : t -> t -> (t, string) result
(** File-level merge: refuses rev/config/seed drift (identity drift
    between runs), keeps the host context only when both sides agree,
    takes the earlier date, and merges rows group-wise with
    {!merge_rows}. *)

(* ------------------------------------------------------------------ *)
(* Canonical campaign report text.                                     *)
(* ------------------------------------------------------------------ *)

val campaign_text : row -> string
(** The canonical certification report for a (merged) sweep row — the
    report.txt of [check sweep]: identity line, mismatches, quarantined
    ranges, totals.  Free of timings and shard counts on purpose, so it
    is byte-identical at any shard count. *)

(* ------------------------------------------------------------------ *)
(* Producer helpers.                                                   *)
(* ------------------------------------------------------------------ *)

val timestamp : unit -> string
(** Current UTC time, ISO-8601. *)

val git_rev : unit -> string
(** Short HEAD revision, or "unknown" outside a git checkout. *)

