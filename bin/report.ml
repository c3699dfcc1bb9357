(* One-shot experiment report: Tables 1, 2 and 3 from a single process
   so each function is generated exactly once (float32 at Quick quality,
   posit32 at Draft — see DESIGN.md on quality/scale).  `bin/check.exe`
   and `bin/generate.exe` remain the flexible per-table drivers. *)

module R = Fp.Representation
module G = Rlibm.Generator

let value_equal (module T : R.S) a b =
  a = b
  ||
  match (T.classify a, T.classify b) with
  | R.Finite, R.Finite -> T.to_double a = T.to_double b
  | R.Nan, R.Nan -> true
  | _ -> false

let correctness (t : Funcs.Specs.target) quality names =
  Printf.printf
    "%-7s | %9s %9s | %9s %9s %9s %9s | (wrong results; enum then fresh columns per library)\n"
    "func" "rlibm" "rlibm" "float-nat" "dbl-nat" "glibc-dbl" "crlibm";
  List.iter
    (fun name ->
      match Funcs.Libm.get ~quality t name with
      | exception Failure msg -> Printf.printf "%-7s | GENERATION FAILED: %s\n%!" name msg
      | g ->
          let module T = (val t.repr) in
          let spec = g.G.spec in
          let libs = Array.of_list (List.map snd (Comparators.all t name g)) in
          let truth pat =
            match spec.special pat with
            | Some y -> y
            | None ->
                Oracle.Elementary.correctly_rounded ~round:T.round_rational spec.oracle
                  (T.to_rational pat)
          in
          let count patterns =
            let wrong = Array.make (Array.length libs) 0 in
            Array.iter
              (fun pat ->
                let want = truth pat in
                Array.iteri
                  (fun i f ->
                    match f with
                    | Some f when not (value_equal (module T) (f pat) want) ->
                        wrong.(i) <- wrong.(i) + 1
                    | _ -> ())
                  libs)
              patterns;
            wrong
          in
          let enum = count (Funcs.Libm.enumeration t quality) in
          let fresh = count (Rlibm.Enumerate.stratified32 ~seed:77 ~per_stratum:4 ()) in
          let column i = function
            | Some _ -> Printf.sprintf "%4d %4d" enum.(i) fresh.(i)
            | None -> Printf.sprintf "%4s %4s" "-" "-"
          in
          Printf.printf "%-7s | %s\n%!" name
            (String.concat " | " (Array.to_list (Array.mapi column libs))))
    names

let table3 (t : Funcs.Specs.target) quality names =
  Printf.printf "%-7s %-10s %7s %8s %7s %6s %4s %5s\n" "func" "component" "time_s" "inputs"
    "reduced" "polys" "deg" "terms";
  List.iter
    (fun name ->
      match Funcs.Libm.get ~quality t name with
      | exception Failure msg -> Printf.printf "%-7s FAILED: %s\n%!" name msg
      | g ->
          let s = g.G.stats in
          Array.iter
            (fun (c : Rlibm.Stats.component) ->
              Printf.printf "%-7s %-10s %7.1f %8d %7d %6d %4d %5d\n%!" name c.cname s.gen_seconds
                s.n_inputs c.n_constraints c.n_polynomials c.degree c.n_terms)
            s.per_component)
    names

let () =
  (* The report goes to stdout; [--out FILE] redirects it to an explicit
     artifact path instead.  Nothing is ever dropped implicitly in the
     working tree. *)
  (match Sys.argv with
  | [| _ |] -> ()
  | [| _; "--out"; file |] ->
      let fd = Unix.openfile file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
      Unix.dup2 fd Unix.stdout;
      Unix.close fd
  | _ ->
      prerr_endline "usage: report [--out FILE]";
      exit 2);
  print_endline "### Table 1 analog: float32 correctness (Quick generation; columns are";
  print_endline "### wrong-result counts on the generation enumeration / a fresh sample)";
  correctness Funcs.Specs.float32 Funcs.Libm.Quick Funcs.Specs.float_functions;
  print_endline "";
  print_endline "### Table 3 analog: generator statistics, float32 (same generation run)";
  table3 Funcs.Specs.float32 Funcs.Libm.Quick Funcs.Specs.float_functions;
  print_endline "";
  print_endline "### Table 2 analog: posit32 correctness (Draft generation)";
  correctness Funcs.Specs.posit32 Funcs.Libm.Draft Funcs.Specs.posit_functions;
  print_endline "";
  print_endline "### Table 3 analog: generator statistics, posit32 (same generation run)";
  table3 Funcs.Specs.posit32 Funcs.Libm.Draft Funcs.Specs.posit_functions
