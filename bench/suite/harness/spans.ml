(* In-memory spans for the traced run.  The benchmark opens one span
   around each call it makes into a layer (one per layer loop per batch,
   never one per element), keeps them in memory, and writes them as
   JSONL when the run ends. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  trace : string;  (** workload/round *)
  name : string;  (** the metric the span feeds, [metric] or [metric:table] *)
  start_ns : int;
  end_ns : int;
  count : int;  (** elements or calls covered *)
}

(* Column store: recording a span writes six array slots and allocates
   nothing (names and traces are shared strings), so tracing adds no GC
   work to the loops it times. *)
type t = {
  mutable parent : int array;
  mutable trace : string array;
  mutable name : string array;
  mutable start_ns : int array;
  mutable end_ns : int array;
  mutable count : int array;
  mutable n : int;
}

let create () =
  { parent = [||]; trace = [||]; name = [||]; start_ns = [||]; end_ns = [||]; count = [||]; n = 0 }

let grow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(** [add t ~parent ~trace ~name ~start_ns ~end_ns ~count] records a
    span and returns its id. *)
let add t ~parent ~trace ~name ~start_ns ~end_ns ~count =
  let id = t.n in
  if id = Array.length t.parent then begin
    let m = Stdlib.max 4096 (2 * id) in
    t.parent <- grow t.parent m 0;
    t.trace <- grow t.trace m "";
    t.name <- grow t.name m "";
    t.start_ns <- grow t.start_ns m 0;
    t.end_ns <- grow t.end_ns m 0;
    t.count <- grow t.count m 0
  end;
  t.parent.(id) <- parent;
  t.trace.(id) <- trace;
  t.name.(id) <- name;
  t.start_ns.(id) <- start_ns;
  t.end_ns.(id) <- end_ns;
  t.count.(id) <- count;
  t.n <- id + 1;
  id

(** [close t id ~end_ns ~count] ends a span recorded with a provisional
    end, once its children are recorded. *)
let close t id ~end_ns ~count =
  t.end_ns.(id) <- end_ns;
  t.count.(id) <- count

let length t = t.n

let get t id =
  {
    id;
    parent = t.parent.(id);
    trace = t.trace.(id);
    name = t.name.(id);
    start_ns = t.start_ns.(id);
    end_ns = t.end_ns.(id);
    count = t.count.(id);
  }

(** Total length of the union of [[lo, hi)] intervals clipped to
    [[lo0, hi0)]. *)
let covered ~lo0 ~hi0 ivs =
  let ivs =
    List.filter_map
      (fun (lo, hi) ->
        let lo = Stdlib.max lo lo0 and hi = Stdlib.min hi hi0 in
        if hi > lo then Some (lo, hi) else None)
      ivs
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (lo, hi) ->
        match cur with
        | None -> (total, Some (lo, hi))
        | Some (clo, chi) ->
            if lo <= chi then (total, Some (clo, Stdlib.max chi hi))
            else (total + (chi - clo), Some (lo, hi)))
      (0, None) ivs
  in
  match last with None -> total | Some (lo, hi) -> total + (hi - lo)

(** Self time of every span: its duration minus the part of its interval
    covered by its children.  Indexed by span id. *)
let self_times t =
  let kids = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then kids.(p) <- (t.start_ns.(i), t.end_ns.(i)) :: kids.(p)
  done;
  Array.init t.n (fun i ->
      t.end_ns.(i) - t.start_ns.(i) - covered ~lo0:t.start_ns.(i) ~hi0:t.end_ns.(i) kids.(i))

let json_line (s : span) =
  Json.to_string
    (Json.Obj
       [
         ("trace", Json.Str s.trace);
         ("span", Json.Int s.id);
         ("parent", if s.parent < 0 then Json.Null else Json.Int s.parent);
         ("name", Json.Str s.name);
         ("start_ns", Json.Int s.start_ns);
         ("end_ns", Json.Int s.end_ns);
         ("count", Json.Int s.count);
       ])

let write_jsonl t ~path =
  let oc = open_out_bin path in
  for i = 0 to t.n - 1 do
    output_string oc (json_line (get t i));
    output_char oc '\n'
  done;
  close_out oc
