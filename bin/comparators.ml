(* The libraries bin/check and bin/report score, in column order:
   rlibm-32 itself, then the baselines.  A baseline that does not
   implement a function (the native simulations have no radian-trig
   path, for instance) is [None] — an absent row or column, not an
   aborted run. *)

let known mk = try Some (mk ()) with Invalid_argument _ -> None

let all (t : Funcs.Specs.target) name (g : Rlibm.Generator.generated) :
    (string * (int -> int) option) list =
  let spec = g.spec in
  [
    ("rlibm-32", Some (Rlibm.Generator.eval_pattern g));
    ( "libm-float(native)",
      known (fun () -> Baselines.Native.eval_pattern Baselines.Native.F32 t name) );
    ( "libm-double(native)",
      known (fun () -> Baselines.Native.eval_pattern Baselines.Native.F64 t name) );
    ("glibc-double", known (fun () -> Baselines.Double_libm.eval t.repr name));
    ( "crlibm(double-rounded)",
      Some
        (fun pat ->
          match spec.special pat with
          | Some y -> y
          | None -> Baselines.Crlibm_analog.round_via_double t.repr spec.oracle pat) );
  ]
