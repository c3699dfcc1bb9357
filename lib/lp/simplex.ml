(* Revised simplex over exact rationals — the SoPlex-faithful kernel.

   Feasibility of  A x <= b  (x free) is decided by splitting
   x = u - v (u, v >= 0), adding slacks, flipping negative-rhs rows and
   giving them artificial variables; phase 1 minimizes the artificial
   sum under Bland's rule.  The pivot sequence is the dense two-phase
   tableau's, driven off a factorization of the m x m basis matrix
   (product-form of the inverse: an explicitly inverted basis refreshed
   every [refactor_interval] pivots, with eta updates in between)
   instead of updating the full m x (2n+m+a) tableau each pivot.
   Reduced costs are priced against the static phase-1 row, so only the
   entering column is ever FTRANed.  Because every priced quantity
   equals the corresponding dense tableau entry exactly (canonical
   rationals), [feasible] replays the dense tableau pivot for pivot and
   returns the identical point — the generated-table determinism
   contract.  The dense tableau itself lives on as the differential-test
   reference in test/util/ref_simplex.ml.

   On top of the same factorization sits the warm-start [state]: rows
   A x <= b with free structural variables and one slack each, basis
   kept across [add_row]/[set_rhs]/[drop_rows] edits, primal
   feasibility repaired by a dual-simplex pass (Bland's least-index
   rule; all-zero objective, so any basis is trivially dual feasible).
   Algorithm 4's counterexample loop only ever appends rows and shrinks
   bounds, which costs a handful of dual pivots per round instead of a
   from-scratch phase 1.

   Performance notes: tableau entries are quotients of minors of the
   structural columns, so they stay a few hundred bits wide for the
   polynomial-fitting workloads; {!Rational}'s dyadic fast path and the
   division-free ratio test keep gcd work off the hot path.  The basis
   holds at most nv structural (non-unit) columns, so refactorization
   is O(m^2 * nv), not O(m^3).  Callers control cost through problem
   size (see {!Polyfit.max_active}), not through approximation. *)

module Q = Rational

type outcome = Feasible of Q.t array | Infeasible | Unknown

let max_pivots = ref 20000
let refactor_interval = ref 32

type counters = {
  mutable cold_solves : int;
  mutable warm_solves : int;
  mutable primal_pivots : int;
  mutable dual_pivots : int;
  mutable refactorizations : int;
  mutable warm_fallbacks : int;
}

let counters =
  { cold_solves = 0; warm_solves = 0; primal_pivots = 0; dual_pivots = 0;
    refactorizations = 0; warm_fallbacks = 0 }

let snapshot () = { counters with cold_solves = counters.cold_solves }

let reset_counters () =
  counters.cold_solves <- 0;
  counters.warm_solves <- 0;
  counters.primal_pivots <- 0;
  counters.dual_pivots <- 0;
  counters.refactorizations <- 0;
  counters.warm_fallbacks <- 0

(* ------------------------------------------------------------------ *)
(* Factorized basis: product-form of the inverse.                      *)
(*                                                                     *)
(* [inv] is B^-1 at the last refactorization; [etas] the elementary     *)
(* pivot matrices since, newest first.  FTRAN solves B z = v, BTRAN     *)
(* solves w B = v.  Everything is slot-indexed: slot k of the basis     *)
(* holds basis column k, and FTRAN/BTRAN results line up with the       *)
(* dense tableau's row index k.                                         *)
(* ------------------------------------------------------------------ *)

module Factor = struct
  type t = {
    m : int;
    inv : Q.t array array;  (* inv.(k) = row k of B^-1 *)
    mutable etas : (int * Q.t array) list;  (* (pivot slot, FTRANed column), newest first *)
    mutable n_etas : int;
  }

  (* Gauss-Jordan with first-nonzero pivoting.  [col k] supplies basis
     column k (dense, length m).  Mostly-unit bases (every slack and
     artificial column is +-e_i) eliminate for free thanks to the
     zero skips: only structural columns generate work. *)
  let refactor ~m ~col =
    counters.refactorizations <- counters.refactorizations + 1;
    let w = Array.make_matrix m m Q.zero in
    for k = 0 to m - 1 do
      let c = col k in
      for i = 0 to m - 1 do
        if not (Q.is_zero c.(i)) then w.(i).(k) <- c.(i)
      done
    done;
    let r = Array.init m (fun i -> Array.init m (fun j -> if i = j then Q.one else Q.zero)) in
    let used = Array.make m false in
    let where = Array.make m (-1) in
    for k = 0 to m - 1 do
      let p = ref (-1) in
      (try
         for i = 0 to m - 1 do
           if (not used.(i)) && not (Q.is_zero w.(i).(k)) then begin
             p := i;
             raise Exit
           end
         done
       with Exit -> ());
      if !p < 0 then failwith "Simplex.Factor: singular basis";
      let p = !p in
      used.(p) <- true;
      where.(k) <- p;
      let piv = w.(p).(k) in
      if not (Q.equal piv Q.one) then begin
        let ip = Q.inv piv in
        for j = 0 to m - 1 do
          if not (Q.is_zero w.(p).(j)) then w.(p).(j) <- Q.mul w.(p).(j) ip
        done;
        for j = 0 to m - 1 do
          if not (Q.is_zero r.(p).(j)) then r.(p).(j) <- Q.mul r.(p).(j) ip
        done
      end;
      for i = 0 to m - 1 do
        if i <> p && not (Q.is_zero w.(i).(k)) then begin
          let f = w.(i).(k) in
          for j = 0 to m - 1 do
            if not (Q.is_zero w.(p).(j)) then w.(i).(j) <- Q.sub w.(i).(j) (Q.mul f w.(p).(j))
          done;
          for j = 0 to m - 1 do
            if not (Q.is_zero r.(p).(j)) then r.(i).(j) <- Q.sub r.(i).(j) (Q.mul f r.(p).(j))
          done
        end
      done
    done;
    { m; inv = Array.init m (fun k -> r.(where.(k))); etas = []; n_etas = 0 }

  (* z = B^-1 v. *)
  let ftran t v =
    let m = t.m in
    let z = Array.make m Q.zero in
    for j = 0 to m - 1 do
      let vj = v.(j) in
      if not (Q.is_zero vj) then
        for i = 0 to m - 1 do
          let c = t.inv.(i).(j) in
          if not (Q.is_zero c) then z.(i) <- Q.add z.(i) (Q.mul c vj)
        done
    done;
    (* Eta columns apply oldest to newest: E = I except column r, with
       (Ex)_r = x_r / zc_r and (Ex)_i = x_i - zc_i (Ex)_r. *)
    List.iter
      (fun (r, zc) ->
        let zr = Q.div z.(r) zc.(r) in
        if not (Q.is_zero zr) then
          for i = 0 to m - 1 do
            if i <> r && not (Q.is_zero zc.(i)) then z.(i) <- Q.sub z.(i) (Q.mul zc.(i) zr)
          done;
        z.(r) <- zr)
      (List.rev t.etas);
    z

  (* w with w B = v (row solve). *)
  let btran t v =
    let m = t.m in
    let v = Array.copy v in
    (* Row-vector application newest to oldest:
       (vE)_r = (v_r - sum_{i<>r} v_i zc_i) / zc_r, other entries kept. *)
    List.iter
      (fun (r, zc) ->
        let acc = ref v.(r) in
        for i = 0 to m - 1 do
          if i <> r && not (Q.is_zero zc.(i)) && not (Q.is_zero v.(i)) then
            acc := Q.sub !acc (Q.mul v.(i) zc.(i))
        done;
        v.(r) <- Q.div !acc zc.(r))
      t.etas;
    let w = Array.make m Q.zero in
    for i = 0 to m - 1 do
      let vi = v.(i) in
      if not (Q.is_zero vi) then
        for j = 0 to m - 1 do
          let c = t.inv.(i).(j) in
          if not (Q.is_zero c) then w.(j) <- Q.add w.(j) (Q.mul c vi)
        done
    done;
    w

  (* Basis column at slot [row] replaced by the column whose FTRAN is
     [colz]; O(1), paid back at the next ftran/btran. *)
  let update t ~row ~colz = begin
    t.etas <- (row, Array.copy colz) :: t.etas;
    t.n_etas <- t.n_etas + 1
  end
end

(* ------------------------------------------------------------------ *)
(* Cold solve: revised replay of the dense tableau.                    *)
(* ------------------------------------------------------------------ *)

(* Reduced costs are priced against the *static* initial phase-1 row
   obj0 (the artificial rows of the initial tableau, summed).  The
   maintained dense objective row satisfies, at every pivot,

     obj(j) = obj0(j) - lambda^T B^-1 A_j

   where lambda_k = obj0(basis k), corrected to 0 for artificials that
   have been basic since initialization (their obj entry is frozen at 1
   while basic and only zeroed if they ever re-enter).  That identity is
   what lets the revised kernel price any column in O(m) — O(1) for the
   unit slack/artificial columns — without carrying the tableau. *)

let feasible ~a ~b =
  counters.cold_solves <- counters.cold_solves + 1;
  let m = Array.length a in
  if m = 0 then invalid_arg "Simplex.feasible: no rows";
  let nv = Array.length a.(0) in
  Array.iter (fun row -> if Array.length row <> nv then invalid_arg "Simplex.feasible: ragged matrix") a;
  if Array.length b <> m then invalid_arg "Simplex.feasible: bad rhs length";
  let flip = Array.map (fun bi -> Q.sign bi < 0) b in
  let neg_rows = ref [] in
  for i = m - 1 downto 0 do
    if flip.(i) then neg_rows := i :: !neg_rows
  done;
  let neg_rows = !neg_rows in
  let n_art = List.length neg_rows in
  if n_art = 0 then Feasible (Array.make nv Q.zero)
  else begin
    let n_cols = (2 * nv) + m + n_art in
    (* Structural columns with the row flips baked in: u then v. *)
    let scol =
      Array.init (2 * nv) (fun j ->
          let base = j mod nv and negv = j >= nv in
          Array.init m (fun i ->
              let v = a.(i).(base) in
              let v = if negv then Q.neg v else v in
              if flip.(i) then Q.neg v else v))
    in
    let art_row = Array.make n_art 0 in
    let art_col_of_row = Hashtbl.create 8 in
    List.iteri
      (fun k i ->
        art_row.(k) <- i;
        Hashtbl.add art_col_of_row i ((2 * nv) + m + k))
      neg_rows;
    let rhs = Array.init m (fun i -> if flip.(i) then Q.neg b.(i) else b.(i)) in
    let basis =
      Array.init m (fun i -> if flip.(i) then Hashtbl.find art_col_of_row i else (2 * nv) + i)
    in
    let is_basic = Array.make n_cols false in
    Array.iter (fun j -> is_basic.(j) <- true) basis;
    let xb = Array.copy rhs in
    (* Static phase-1 row over the initial tableau. *)
    let obj0_struct =
      Array.init (2 * nv) (fun j ->
          List.fold_left (fun acc i -> Q.add acc scol.(j).(i)) Q.zero neg_rows)
    in
    let obj0_rhs = List.fold_left (fun acc i -> Q.add acc rhs.(i)) Q.zero neg_rows in
    let colv j =
      if j < 2 * nv then scol.(j)
      else if j < (2 * nv) + m then begin
        let i = j - (2 * nv) in
        let c = Array.make m Q.zero in
        c.(i) <- (if flip.(i) then Q.minus_one else Q.one);
        c
      end
      else begin
        let c = Array.make m Q.zero in
        c.(art_row.(j - (2 * nv) - m)) <- Q.one;
        c
      end
    in
    let basis_col k = colv basis.(k) in
    let factor = ref (Factor.refactor ~m ~col:basis_col) in
    (* Pricing multipliers: lambda_k is the static obj0 entry of basis
       column k — except artificial columns, whose obj0 entry (1, the
       frozen z-row value) is never folded into the maintained dense row
       while the artificial stays basic.  Since artificials can never
       re-enter, every basic artificial has been basic since the start,
       so its multiplier is simply 0. *)
    let lambda_of k =
      let c = basis.(k) in
      if c < 2 * nv then obj0_struct.(c)
      else if c < (2 * nv) + m then if flip.(c - (2 * nv)) then Q.minus_one else Q.zero
      else Q.zero
    in
    let pivots = ref 0 in
    let result = ref None in
    while !result = None do
      if !pivots > !max_pivots then result := Some Unknown
      else begin
        let lambda = Array.init m lambda_of in
        let y = Factor.btran !factor lambda in
        let objv j =
          if j < 2 * nv then begin
            let c = scol.(j) in
            let acc = ref obj0_struct.(j) in
            for i = 0 to m - 1 do
              if not (Q.is_zero y.(i)) && not (Q.is_zero c.(i)) then
                acc := Q.sub !acc (Q.mul y.(i) c.(i))
            done;
            !acc
          end
          else begin
            let i = j - (2 * nv) in
            if flip.(i) then Q.sub y.(i) Q.one (* obj0 = -1, column = -e_i *)
            else Q.neg y.(i) (* obj0 = 0, column = e_i *)
          end
        in
        (* Artificials barred from entering, mirroring the dense tableau. *)
        let entering = ref (-1) in
        (try
           for j = 0 to (2 * nv) + m - 1 do
             if (not is_basic.(j)) && Q.sign (objv j) > 0 then begin
               entering := j;
               raise Exit
             end
           done
         with Exit -> ());
        if !entering < 0 then begin
          let zrhs = ref obj0_rhs in
          for i = 0 to m - 1 do
            let li = lambda.(i) in
            if not (Q.is_zero li) && not (Q.is_zero xb.(i)) then
              zrhs := Q.sub !zrhs (Q.mul li xb.(i))
          done;
          if Q.is_zero !zrhs then begin
            let x = Array.make nv Q.zero in
            for i = 0 to m - 1 do
              if basis.(i) < nv then x.(basis.(i)) <- Q.add x.(basis.(i)) xb.(i)
              else if basis.(i) < 2 * nv then
                x.(basis.(i) - nv) <- Q.sub x.(basis.(i) - nv) xb.(i)
            done;
            result := Some (Feasible x)
          end
          else result := Some Infeasible
        end
        else begin
          let e = !entering in
          let z = Factor.ftran !factor (colv e) in
          let leave = ref (-1) in
          for i = 0 to m - 1 do
            if Q.sign z.(i) > 0 then begin
              if !leave < 0 then leave := i
              else begin
                let l = !leave in
                let lhs = Q.mul xb.(i) z.(l) in
                let rhs_ = Q.mul xb.(l) z.(i) in
                let c = Q.compare lhs rhs_ in
                if c < 0 || (c = 0 && basis.(i) < basis.(l)) then leave := i
              end
            end
          done;
          if !leave < 0 then result := Some Unknown
          else begin
            let l = !leave in
            let theta = Q.div xb.(l) z.(l) in
            for i = 0 to m - 1 do
              if i <> l && not (Q.is_zero z.(i)) then xb.(i) <- Q.sub xb.(i) (Q.mul z.(i) theta)
            done;
            xb.(l) <- theta;
            is_basic.(basis.(l)) <- false;
            is_basic.(e) <- true;
            basis.(l) <- e;
            Factor.update !factor ~row:l ~colz:z;
            if !factor.Factor.n_etas >= !refactor_interval then
              factor := Factor.refactor ~m ~col:basis_col;
            counters.primal_pivots <- counters.primal_pivots + 1;
            incr pivots
          end
        end
      end
    done;
    match !result with Some r -> r | None -> Unknown
  end

(* ------------------------------------------------------------------ *)
(* Warm-started incremental state.                                     *)
(* ------------------------------------------------------------------ *)

(* Columns: structural j in [0, nv) (free), then slack nv+i for row i
   (>= 0).  The basis always has one column per row (slot k <-> row k of
   the factorization); free structurals never leave once entered, slacks
   leave when driven negative.  No artificials and no u/v split: the
   dual repair never needs a feasible start, only a basis. *)

type state = {
  w_nv : int;
  mutable w_m : int;
  mutable w_rows : Q.t array array;
  mutable w_rhs : Q.t array;
  mutable w_basis : int array;  (* slot -> column *)
  mutable w_pos : int array;  (* column -> slot, -1 nonbasic; length nv + m *)
  mutable w_xb : Q.t array;  (* slot -> basic value *)
  mutable w_factor : Factor.t option;  (* None: structure changed *)
  mutable w_xb_dirty : bool;
}

let create ~nv =
  if nv <= 0 then invalid_arg "Simplex.create: nv must be positive";
  {
    w_nv = nv;
    w_m = 0;
    w_rows = [||];
    w_rhs = [||];
    w_basis = [||];
    w_pos = Array.make nv (-1);
    w_xb = [||];
    w_factor = None;
    w_xb_dirty = true;
  }

let nrows st = st.w_m

let copy st =
  {
    st with
    w_rows = Array.map Array.copy st.w_rows;
    w_rhs = Array.copy st.w_rhs;
    w_basis = Array.copy st.w_basis;
    w_pos = Array.copy st.w_pos;
    w_xb = Array.copy st.w_xb;
    w_factor = None;  (* rebuilt lazily; cheaper than deep-copying *)
    w_xb_dirty = true;
  }

let append arr x = Array.append arr [| x |]

let add_row st arow brhs =
  if Array.length arow <> st.w_nv then invalid_arg "Simplex.add_row: bad row length";
  let i = st.w_m in
  st.w_rows <- append st.w_rows (Array.copy arow);
  st.w_rhs <- append st.w_rhs brhs;
  st.w_basis <- append st.w_basis (st.w_nv + i);
  st.w_pos <- append st.w_pos i;
  st.w_xb <- append st.w_xb Q.zero;
  st.w_m <- i + 1;
  st.w_factor <- None;
  st.w_xb_dirty <- true;
  i

let set_rhs st i brhs =
  if i < 0 || i >= st.w_m then invalid_arg "Simplex.set_rhs: bad row";
  st.w_rhs.(i) <- brhs;
  st.w_xb_dirty <- true

let wcol st j =
  let m = st.w_m in
  if j < st.w_nv then Array.init m (fun i -> st.w_rows.(i).(j))
  else begin
    let c = Array.make m Q.zero in
    c.(j - st.w_nv) <- Q.one;
    c
  end

let ensure_factor st =
  match st.w_factor with
  | Some f -> f
  | None ->
      let f = Factor.refactor ~m:st.w_m ~col:(fun k -> wcol st st.w_basis.(k)) in
      st.w_factor <- Some f;
      f

let refresh_xb st =
  if st.w_xb_dirty then begin
    let f = ensure_factor st in
    st.w_xb <- Factor.ftran f st.w_rhs;
    st.w_xb_dirty <- false
  end

(* Replace the basis column at [slot] by column [e] whose FTRAN is [z];
   shared by the dual pivot and the drop_rows surgery. *)
let replace_basis st ~slot ~e ~z =
  let f = ensure_factor st in
  st.w_pos.(st.w_basis.(slot)) <- -1;
  st.w_pos.(e) <- slot;
  st.w_basis.(slot) <- e;
  Factor.update f ~row:slot ~colz:z;
  if f.Factor.n_etas >= !refactor_interval then
    st.w_factor <- Some (Factor.refactor ~m:st.w_m ~col:(fun k -> wcol st st.w_basis.(k)))

let drop_rows st ~keep =
  if st.w_m > 0 then begin
    let m = st.w_m and nv = st.w_nv in
    let doomed = Array.init m (fun i -> not (keep i)) in
    if Array.exists Fun.id doomed then begin
      (* 1. Pivot every doomed row's slack into the basis, so the (row,
         slack) pairs can be deleted without losing basis regularity.
         A slot with a nonzero FTRAN entry whose column is not itself a
         doomed slack always exists (a unit vector cannot be a
         combination of *other* unit vectors). *)
      for i = 0 to m - 1 do
        if doomed.(i) && st.w_pos.(nv + i) < 0 then begin
          let f = ensure_factor st in
          let u = Array.make m Q.zero in
          u.(i) <- Q.one;
          let z = Factor.ftran f u in
          let slot = ref (-1) in
          (try
             for p = 0 to m - 1 do
               if not (Q.is_zero z.(p)) then begin
                 let c = st.w_basis.(p) in
                 let c_is_doomed_slack = c >= nv && doomed.(c - nv) in
                 if not c_is_doomed_slack then begin
                   slot := p;
                   raise Exit
                 end
               end
             done
           with Exit -> ());
          if !slot < 0 then failwith "Simplex.drop_rows: singular surgery";
          replace_basis st ~slot:!slot ~e:(nv + i) ~z
        end
      done;
      (* 2. Compact rows, rhs and basis; renumber slack columns. *)
      let rowmap = Array.make m (-1) in
      let n' = ref 0 in
      for i = 0 to m - 1 do
        if not doomed.(i) then begin
          rowmap.(i) <- !n';
          incr n'
        end
      done;
      let m' = !n' in
      let rows' = Array.make m' [||] and rhs' = Array.make m' Q.zero in
      for i = 0 to m - 1 do
        if rowmap.(i) >= 0 then begin
          rows'.(rowmap.(i)) <- st.w_rows.(i);
          rhs'.(rowmap.(i)) <- st.w_rhs.(i)
        end
      done;
      let basis' = Array.make m' 0 in
      let k' = ref 0 in
      for k = 0 to m - 1 do
        let c = st.w_basis.(k) in
        let drop_slot = c >= nv && doomed.(c - nv) in
        if not drop_slot then begin
          basis'.(!k') <- (if c < nv then c else nv + rowmap.(c - nv));
          incr k'
        end
      done;
      assert (!k' = m');
      let pos' = Array.make (nv + m') (-1) in
      Array.iteri (fun k c -> pos'.(c) <- k) basis';
      st.w_m <- m';
      st.w_rows <- rows';
      st.w_rhs <- rhs';
      st.w_basis <- basis';
      st.w_pos <- pos';
      st.w_xb <- Array.make m' Q.zero;
      st.w_factor <- None;
      st.w_xb_dirty <- true
    end
  end

let solve st =
  counters.warm_solves <- counters.warm_solves + 1;
  if st.w_m = 0 then Feasible (Array.make st.w_nv Q.zero)
  else begin
    let nv = st.w_nv in
    refresh_xb st;
    let result = ref None in
    let pivots = ref 0 in
    while !result = None do
      if !pivots > !max_pivots then result := Some Unknown
      else begin
        let m = st.w_m in
        (* Leaving: Bland least-index among bound-violated basics (only
           slacks have bounds; structurals are free and never leave). *)
        let best_var = ref max_int and best_slot = ref (-1) in
        for k = 0 to m - 1 do
          let c = st.w_basis.(k) in
          if c >= nv && Q.sign st.w_xb.(k) < 0 && c < !best_var then begin
            best_var := c;
            best_slot := k
          end
        done;
        if !best_slot < 0 then begin
          let x = Array.make nv Q.zero in
          for k = 0 to m - 1 do
            if st.w_basis.(k) < nv then x.(st.w_basis.(k)) <- st.w_xb.(k)
          done;
          result := Some (Feasible x)
        end
        else begin
          let r = !best_slot in
          let f = ensure_factor st in
          let u = Array.make m Q.zero in
          u.(r) <- Q.one;
          let w = Factor.btran f u in
          (* Entering: Bland least column index among the eligible —
             any free structural with a nonzero pivot-row entry, then
             any nonbasic slack with a negative one. *)
          let entering = ref (-1) in
          (try
             for j = 0 to nv - 1 do
               if st.w_pos.(j) < 0 then begin
                 let alpha = ref Q.zero in
                 for i = 0 to m - 1 do
                   if not (Q.is_zero w.(i)) && not (Q.is_zero st.w_rows.(i).(j)) then
                     alpha := Q.add !alpha (Q.mul w.(i) st.w_rows.(i).(j))
                 done;
                 if Q.sign !alpha <> 0 then begin
                   entering := j;
                   raise Exit
                 end
               end
             done;
             for i = 0 to m - 1 do
               if st.w_pos.(nv + i) < 0 && Q.sign w.(i) < 0 then begin
                 entering := nv + i;
                 raise Exit
               end
             done
           with Exit -> ());
          if !entering < 0 then
            (* Row r is a Farkas certificate: e_r B^-1 A >= 0 on every
               column yet its basic value is negative. *)
            result := Some Infeasible
          else begin
            let e = !entering in
            let z = Factor.ftran f (wcol st e) in
            let theta = Q.div st.w_xb.(r) z.(r) in
            for i = 0 to m - 1 do
              if i <> r && not (Q.is_zero z.(i)) then
                st.w_xb.(i) <- Q.sub st.w_xb.(i) (Q.mul z.(i) theta)
            done;
            st.w_xb.(r) <- theta;
            replace_basis st ~slot:r ~e ~z;
            counters.dual_pivots <- counters.dual_pivots + 1;
            incr pivots
          end
        end
      end
    done;
    match !result with Some r -> r | None -> Unknown
  end
