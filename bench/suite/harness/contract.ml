(* BENCHMARK.json: the workload names, the metric names with their units
   and polarity, and the bound by which each end-to-end metric may
   worsen.  The suite prints exactly these metrics and [compare] judges
   with exactly these bounds, so the file is the one place they live. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit_ : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

type t = {
  run_seconds : int;
  workloads : string list;
  end_to_end : metric list;
  per_layer : metric list;
}

let ( let* ) = Result.bind

let field k j =
  match Json.member k j with Some v -> Ok v | None -> Error ("BENCHMARK.json: missing " ^ k)

let str k j =
  let* v = field k j in
  match v with Json.Str s -> Ok s | _ -> Error ("BENCHMARK.json: " ^ k ^ " is not a string")

let list k j =
  let* v = field k j in
  match v with Json.Arr xs -> Ok xs | _ -> Error ("BENCHMARK.json: " ^ k ^ " is not a list")

let all f xs =
  List.fold_right
    (fun x acc ->
      let* acc = acc in
      let* y = f x in
      Ok (y :: acc))
    xs (Ok [])

let metric ~bounded j =
  let* name = str "name" j in
  let* unit_ = str "unit" j in
  let* b = str "better" j in
  let* better =
    match b with
    | "lower" -> Ok Lower
    | "higher" -> Ok Higher
    | s -> Error (Printf.sprintf "BENCHMARK.json: %s: better must be lower or higher, not %S" name s)
  in
  let* bound =
    if not bounded then Ok None
    else
      let* v = field "bound" j in
      match Json.to_float v with
      | Some f when f >= 0.0 -> Ok (Some f)
      | _ -> Error ("BENCHMARK.json: " ^ name ^ ": bound is not a non-negative number")
  in
  Ok { name; unit_; better; bound }

let of_json j =
  let* rs = field "run_seconds" j in
  let* run_seconds =
    match rs with Json.Int n -> Ok n | _ -> Error "BENCHMARK.json: run_seconds is not an integer"
  in
  let* ws = list "workloads" j in
  let* workloads = all (str "name") ws in
  let* e2e = list "end_to_end" j in
  let* end_to_end = all (metric ~bounded:true) e2e in
  let* pl = list "per_layer" j in
  let* per_layer = all (metric ~bounded:false) pl in
  Ok { run_seconds; workloads; end_to_end; per_layer }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> (
      match Json.parse text with
      | Error msg -> Error (path ^ ": " ^ msg)
      | Ok j -> of_json j)

(* ------------------------------------------------------------------ *)
(* Verdicts for [suite.exe compare].                                   *)
(* ------------------------------------------------------------------ *)

type verdict = Agree | Worse | Unresolved

let verdict_to_string = function Agree -> "agree" | Worse -> "worse" | Unresolved -> "unresolved"

(** One side of a comparison: the metric's value in each run, and the
    spread measured inside the run (used when a side has one run). *)
type side = { values : float array; within : float }

let spread s = if Array.length s.values >= 2 then Summary.rel_spread s.values else s.within

(** [judge better ~bound ~base ~curr] is the verdict on the new side
    [curr] against [base], with the share by which its median is worse
    (negative when better).  A metric whose spread on either side exceeds
    its bound is unresolved, unless every new run beats every base run.
    A zero bound means "must not rise": any worsening is [Worse]. *)
let judge better ~bound ~base ~curr =
  let mb = Summary.median base.values and mc = Summary.median curr.values in
  let worse =
    match better with
    | Lower -> if mb = 0.0 then (if mc > 0.0 then infinity else 0.0) else (mc /. mb) -. 1.0
    | Higher -> if mc = 0.0 then (if mb > 0.0 then infinity else 0.0) else (mb /. mc) -. 1.0
  in
  let all_better =
    match better with
    | Lower -> Array.for_all (fun c -> Array.for_all (fun b -> c < b) base.values) curr.values
    | Higher -> Array.for_all (fun c -> Array.for_all (fun b -> c > b) base.values) curr.values
  in
  let v =
    if bound = 0.0 then (if worse > 0.0 then Worse else Agree)
    else if all_better then Agree
    else if Float.max (spread base) (spread curr) > bound then Unresolved
    else if worse > bound then Worse
    else Agree
  in
  (v, worse)
