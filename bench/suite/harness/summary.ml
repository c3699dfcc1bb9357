(* Order statistics for the suite's reports. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(** Nearest-rank percentile ([q] in (0, 1]) of an already sorted array:
    the smallest sample with at least [q] of the samples at or below it. *)
let percentile s q =
  let n = Array.length s in
  if n = 0 then invalid_arg "Summary.percentile: no samples";
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  s.(Stdlib.max 1 (Stdlib.min n rank) - 1)

(** Median, the mean of the middle pair for even counts. *)
let median xs =
  let s = sorted xs in
  let n = Array.length s in
  if n = 0 then invalid_arg "Summary.median: no samples";
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(** First and third quartiles as Python's [statistics.quantiles(xs,
    n=4)] computes them (the default "exclusive" method), so the suite's
    spreads match the ones BENCHMARK.json's bounds are set against.  A
    single sample is its own quartiles. *)
let quartiles xs =
  let s = sorted xs in
  let ld = Array.length s in
  if ld = 0 then invalid_arg "Summary.quartiles: no samples";
  if ld = 1 then (s.(0), s.(0))
  else begin
    let m = ld + 1 in
    let q i =
      let j = Stdlib.max 1 (Stdlib.min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((s.(j - 1) *. float_of_int (4 - delta)) +. (s.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)
  end

(** Interquartile range as a share of the median: the spread the
    benchmark bounds are compared against. *)
let rel_spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0.0 then 0.0 else (q3 -. q1) /. Float.abs m

let geomean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Summary.geomean: no samples";
  Float.exp (Array.fold_left (fun acc x -> acc +. Float.log x) 0.0 xs /. float_of_int n)

(** Indices of the fastest tenth (at least one) of trials, by
    throughput.  On a shared host the machine's speed drifts with other
    tenants' load; the fastest trials are the ones it disturbed least,
    while a slower code path slows every trial. *)
let fastest_decile throughputs =
  let idx = Array.init (Array.length throughputs) Fun.id in
  Array.sort (fun a b -> Float.compare throughputs.(b) throughputs.(a)) idx;
  Array.sub idx 0 (Stdlib.max 1 (Array.length idx / 10))

(** Ablation arithmetic.  [totals.(k)] is the time of loop [k] over
    [calls] elements, where loop [k] runs layers [0..k] of the same
    path; the cost per call of layer [k] is loop [k]'s time minus loop
    [k-1]'s, divided by [calls].  A difference inside the noise can come
    out negative and is reported as measured. *)
let layer_costs ~calls totals =
  let n = float_of_int calls in
  Array.mapi (fun k t -> (t -. if k = 0 then 0.0 else totals.(k - 1)) /. n) totals
