(* Two-tier signed bignums.

   Tier one ([S n]) is a native OCaml [int] holding any value whose
   magnitude fits 62 bits (all of [min_int+1 .. max_int]); its
   arithmetic allocates nothing.  Tier two ([L _]) is the sign-magnitude
   little-endian limb array in base [2^31] of the original
   implementation, reached only on overflow.

   Canonical form (relied on everywhere, including by polymorphic
   structural equality on clients that use it):
   - every value with [bit_length <= 62] is [S]; [L] magnitudes have at
     least 3 limbs and no trailing (most significant) zero limb;
   - [S min_int] never occurs (its negation would not be representable);
     [of_int min_int] lands on the [L] tier.
   Base 2^31 keeps every limb product below 2^62, inside the native
   [int] on 64-bit platforms.

   The limb tier uses Karatsuba multiplication above [kara_threshold]
   limbs, with all temporaries carved out of one per-domain scratch
   buffer ([get_scratch]) that is reused across calls — a Ziv-loop
   oracle iteration performs thousands of wide multiplies and none of
   them allocates intermediate limb arrays beyond the result itself. *)

let limb_bits = 31
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t =
  | S of int  (* |n| <= max_int; never min_int *)
  | L of { sign : int; mag : int array }  (* sign = -1 | 1; >= 3 limbs *)

let zero = S 0
let one = S 1
let two = S 2
let minus_one = S (-1)

(* Position of the highest set bit of a nonnegative int, plus one. *)
let int_bits n =
  if n = 0 then 0
  else begin
    let n = ref n and b = ref 1 in
    if !n lsr 32 <> 0 then begin n := !n lsr 32; b := !b + 32 end;
    if !n lsr 16 <> 0 then begin n := !n lsr 16; b := !b + 16 end;
    if !n lsr 8 <> 0 then begin n := !n lsr 8; b := !b + 8 end;
    if !n lsr 4 <> 0 then begin n := !n lsr 4; b := !b + 4 end;
    if !n lsr 2 <> 0 then begin n := !n lsr 2; b := !b + 2 end;
    if !n lsr 1 <> 0 then b := !b + 1;
    !b
  end

(* Limb view of a positive fixnum (at most two limbs). *)
let mag_of_pos v = if v < base then [| v |] else [| v land limb_mask; v lsr limb_bits |]

(* (sign, magnitude) view of any value; only slow paths call this. *)
let sgn_mag = function
  | S n -> if n > 0 then (1, mag_of_pos n) else if n < 0 then (-1, mag_of_pos (-n)) else (0, [||])
  | L b -> (b.sign, b.mag)

(* Normalize a magnitude: strip high zero limbs, drop to the fixnum tier
   when at most two limbs (= 62 bits) remain. *)
let make_sm sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = 0 then S 0
  else if !n <= 2 then begin
    let v = if !n = 1 then mag.(0) else (mag.(1) lsl limb_bits) lor mag.(0) in
    S (if sign < 0 then -v else v)
  end
  else if !n = Array.length mag then L { sign; mag }
  else L { sign; mag = Array.sub mag 0 !n }

let of_int n = if n <> min_int then S n else L { sign = -1; mag = [| 0; 0; 1 |] }
let sign = function S n -> Stdlib.compare n 0 | L b -> b.sign
let is_zero = function S 0 -> true | _ -> false
let neg = function S n -> S (-n) | L b -> L { sign = -b.sign; mag = b.mag }

let abs t =
  match t with S n -> S (Stdlib.abs n) | L b -> if b.sign < 0 then L { sign = 1; mag = b.mag } else t

(* Magnitude comparison: -1, 0, 1. *)
let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0 else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i) else go (i - 1)
    in
    go (la - 1)
  end

let compare x y =
  match (x, y) with
  | S a, S b -> Int.compare a b
  (* An [L] magnitude needs >= 63 bits, so it dominates every fixnum. *)
  | S _, L b -> -b.sign
  | L a, S _ -> a.sign
  | L a, L b -> if a.sign <> b.sign then Stdlib.compare a.sign b.sign else a.sign * cmp_mag a.mag b.mag

let equal x y = compare x y = 0

(* ------------------------------------------------------------------ *)
(* Magnitude kernels.                                                  *)
(* ------------------------------------------------------------------ *)

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = 1 + max la lb in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 2 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(lr - 1) <- !carry;
  r

(* Requires |a| >= |b|. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end
    else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  r

(* In-place accumulation: dst[off..] += src[so..so+n).  The carry
   propagates past [n]; the caller guarantees the sum fits in dst. *)
let add_into dst off src so n =
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = dst.(off + i) + src.(so + i) + !carry in
    dst.(off + i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  let k = ref (off + n) in
  while !carry <> 0 do
    let s = dst.(!k) + !carry in
    dst.(!k) <- s land limb_mask;
    carry := s lsr limb_bits;
    incr k
  done

(* In-place: dst[off..] -= src[so..so+n).  The caller guarantees the
   difference is nonnegative, so the borrow dies inside dst. *)
let sub_into dst off src so n =
  let borrow = ref 0 in
  for i = 0 to n - 1 do
    let d = dst.(off + i) - src.(so + i) - !borrow in
    if d < 0 then begin
      dst.(off + i) <- d + base;
      borrow := 1
    end
    else begin
      dst.(off + i) <- d;
      borrow := 0
    end
  done;
  let k = ref (off + n) in
  while !borrow <> 0 do
    let d = dst.(!k) - 1 in
    if d < 0 then dst.(!k) <- d + base
    else begin
      dst.(!k) <- d;
      borrow := 0
    end;
    incr k
  done

(* dst[doff .. doff+max(lx,ly)+1) = x + y, top limb possibly zero;
   returns the (fixed) written length so Karatsuba's bookkeeping never
   depends on where zero limbs happen to fall. *)
let add_limbs dst doff x xo lx y yo ly =
  let lmax = max lx ly in
  let carry = ref 0 in
  for i = 0 to lmax - 1 do
    let s = (if i < lx then x.(xo + i) else 0) + (if i < ly then y.(yo + i) else 0) + !carry in
    dst.(doff + i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  dst.(doff + lmax) <- !carry;
  lmax + 1

(* Schoolbook product accumulated into a zeroed dst region. *)
let school_into dst off a ao la b bo lb =
  for i = 0 to la - 1 do
    let ai = a.(ao + i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let k = off + i + j in
        let s = dst.(k) + (ai * b.(bo + j)) + !carry in
        dst.(k) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      let k = ref (off + i + lb) in
      while !carry <> 0 do
        let s = dst.(!k) + !carry in
        dst.(!k) <- s land limb_mask;
        carry := s lsr limb_bits;
        incr k
      done
    end
  done

(* Below this many limbs of the smaller operand, schoolbook wins: the
   recursion's extra adds/subs cost more than the saved limb products.
   Tuned by timing multiplication at each candidate: 16/24/32/48 were
   within noise of each other at the crossover, 24 was fastest at
   64-256 limbs. *)
let kara_threshold = 24

(* Per-domain grow-only scratch for Karatsuba temporaries.  Safe because
   limb kernels never call back into user code, so within one domain the
   buffer is dead again by the time any other [Bigint] entry point runs. *)
let scratch_key = Domain.DLS.new_key (fun () -> ref [||])

let get_scratch n =
  let r = Domain.DLS.get scratch_key in
  if Array.length !r < n then r := Array.make n 0;
  !r

(* Karatsuba product of a[ao..ao+la) * b[bo..bo+lb) into the zeroed
   region dst[off..off+la+lb); requires la >= lb >= 1.  Temporaries live
   in scratch at [sp..]. *)
let rec kara_into dst off a ao la b bo lb scratch sp =
  if lb < kara_threshold then school_into dst off a ao la b bo lb
  else begin
    let m = la / 2 in
    if lb <= m then begin
      (* Unbalanced: split only a.  a*b = a1*b*B^m + a0*b. *)
      kara_into dst off a ao m b bo lb scratch sp;
      let plen = la - m + lb in
      Array.fill scratch sp plen 0;
      kara_into scratch sp a (ao + m) (la - m) b bo lb scratch (sp + plen);
      add_into dst (off + m) scratch sp plen
    end
    else begin
      let la1 = la - m and lb1 = lb - m in
      (* z0 = a0*b0 and z2 = a1*b1 go straight into their final slots. *)
      kara_into dst off a ao m b bo m scratch sp;
      kara_into dst (off + (2 * m)) a (ao + m) la1 b (bo + m) lb1 scratch sp;
      (* z1 = (a0+a1)(b0+b1) - z0 - z2, added at offset m. *)
      let s1 = sp in
      let l1 = add_limbs scratch s1 a ao m a (ao + m) la1 in
      let s2 = sp + l1 in
      let l2 = add_limbs scratch s2 b bo m b (bo + m) lb1 in
      let p = s2 + l2 in
      let pl = l1 + l2 in
      Array.fill scratch p pl 0;
      if l1 >= l2 then kara_into scratch p scratch s1 l1 scratch s2 l2 scratch (p + pl)
      else kara_into scratch p scratch s2 l2 scratch s1 l1 scratch (p + pl);
      sub_into scratch p dst off (2 * m);
      sub_into scratch p dst (off + (2 * m)) (la1 + lb1);
      let pl = ref pl in
      while !pl > 0 && scratch.(p + !pl - 1) = 0 do
        decr pl
      done;
      add_into dst (off + m) scratch p !pl
    end
  end

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  let a, la, b, lb = if la >= lb then (a, la, b, lb) else (b, lb, a, la) in
  if lb < kara_threshold then school_into r 0 a 0 la b 0 lb
  else kara_into r 0 a 0 la b 0 lb (get_scratch ((4 * (la + lb)) + 512)) 0;
  r

(* a * d for a single-limb 0 < d < base. *)
let mul_mag_int a d =
  let la = Array.length a in
  let r = Array.make (la + 1) 0 in
  let carry = ref 0 in
  for i = 0 to la - 1 do
    let s = (a.(i) * d) + !carry in
    r.(i) <- s land limb_mask;
    carry := s lsr limb_bits
  done;
  r.(la) <- !carry;
  r

(* ------------------------------------------------------------------ *)
(* Addition and multiplication.                                        *)
(* ------------------------------------------------------------------ *)

let add_slow x y =
  let sx, mx = sgn_mag x and sy, my = sgn_mag y in
  if sx = 0 then y
  else if sy = 0 then x
  else if sx = sy then make_sm sx (add_mag mx my)
  else begin
    match cmp_mag mx my with
    | 0 -> S 0
    | c when c > 0 -> make_sm sx (sub_mag mx my)
    | _ -> make_sm sy (sub_mag my mx)
  end

let add x y =
  match (x, y) with
  | S a, S b ->
      let s = a + b in
      (* Overflow iff both signs differ from the result's; [min_int] is
         representable natively but not canonical as [S]. *)
      if (a lxor s) land (b lxor s) < 0 || s = min_int then add_slow x y else S s
  | _ -> add_slow x y

let sub x y =
  match (x, y) with
  | S a, S b ->
      let d = a - b in
      if (a lxor b) land (a lxor d) < 0 || d = min_int then add x (neg y) else S d
  | _ -> add x (neg y)

let mul x y =
  match (x, y) with
  | S 0, _ | _, S 0 -> S 0
  | S a, S b
    when (* both below 2^30: the product fits without counting bits *)
         Stdlib.abs a lor Stdlib.abs b < 0x4000_0000
         || int_bits (Stdlib.abs a) + int_bits (Stdlib.abs b) <= 62 ->
      S (a * b)
  | _ ->
      let sx, mx = sgn_mag x and sy, my = sgn_mag y in
      if sx = 0 || sy = 0 then S 0 else make_sm (sx * sy) (mul_mag mx my)

(* ------------------------------------------------------------------ *)
(* Bit-level queries and shifts.                                       *)
(* ------------------------------------------------------------------ *)

let bit_length = function
  | S n -> int_bits (Stdlib.abs n)
  | L b ->
      let n = Array.length b.mag in
      ((n - 1) * limb_bits) + int_bits b.mag.(n - 1)

let testbit t i =
  match t with
  | S n -> i < 62 && (Stdlib.abs n lsr i) land 1 = 1
  | L b ->
      let limb = i / limb_bits and off = i mod limb_bits in
      limb < Array.length b.mag && (b.mag.(limb) lsr off) land 1 = 1

let is_even = function S n -> n land 1 = 0 | L b -> b.mag.(0) land 1 = 0

let is_pow2 = function
  | S n -> n > 0 && n land (n - 1) = 0
  | L b ->
      b.sign > 0
      &&
      let n = Array.length b.mag in
      let top = b.mag.(n - 1) in
      top land (top - 1) = 0
      &&
      let rec rest i = i >= n - 1 || (b.mag.(i) = 0 && rest (i + 1)) in
      rest 0

let low_bits_nonzero t k =
  if k <= 0 then false
  else begin
    match t with
    | S n -> Stdlib.abs n land ((1 lsl min k 62) - 1) <> 0
    | L b ->
        let limbs = min (k / limb_bits) (Array.length b.mag) in
        let rec whole i = i < limbs && (b.mag.(i) <> 0 || whole (i + 1)) in
        whole 0
        || limbs = k / limb_bits
           && limbs < Array.length b.mag
           && b.mag.(limbs) land ((1 lsl (k mod limb_bits)) - 1) <> 0
  end

let shift_left t k =
  if k < 0 then invalid_arg "Bigint.shift_left";
  match t with
  | S 0 -> t
  | _ when k = 0 -> t
  | S n when int_bits (Stdlib.abs n) + k <= 62 -> S (n lsl k)
  | _ ->
      let s, mag = sgn_mag t in
      let limbs = k / limb_bits and bits = k mod limb_bits in
      let la = Array.length mag in
      let r = Array.make (la + limbs + 1) 0 in
      let carry = ref 0 in
      for i = 0 to la - 1 do
        let v = (mag.(i) lsl bits) lor !carry in
        r.(i + limbs) <- v land limb_mask;
        carry := v lsr limb_bits
      done;
      r.(la + limbs) <- !carry;
      make_sm s r

let shift_right t k =
  if k < 0 then invalid_arg "Bigint.shift_right";
  match t with
  | S n -> if k = 0 then t else if k >= 62 then S 0 else if n >= 0 then S (n lsr k) else S (-(-n lsr k))
  | L b ->
      if k = 0 then t
      else begin
        let limbs = k / limb_bits and bits = k mod limb_bits in
        let la = Array.length b.mag in
        if limbs >= la then S 0
        else begin
          let lr = la - limbs in
          let r = Array.make lr 0 in
          for i = 0 to lr - 1 do
            let lo = b.mag.(i + limbs) lsr bits in
            let hi =
              if bits > 0 && i + limbs + 1 < la then
                (b.mag.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask
              else 0
            in
            r.(i) <- lo lor hi
          done;
          make_sm b.sign r
        end
      end

(* (a lsl k) + b in one pass when the signs agree: the shifted magnitude
   is written straight into the result buffer and [b] accumulated in
   place — the hot shape of Bigfloat's mantissa alignment in [add]. *)
let shift_add a k b =
  if k < 0 then invalid_arg "Bigint.shift_add";
  match (a, b) with
  | S 0, _ -> b
  | _, S 0 -> shift_left a k
  | S x, S y when int_bits (Stdlib.abs x) + k <= 61 ->
      let xs = x lsl k in
      let s = xs + y in
      if (xs lxor s) land (y lxor s) >= 0 && s <> min_int then S s else add_slow (S xs) b
  | _ ->
      let sa, ma = sgn_mag a and sb, mb = sgn_mag b in
      if sa = sb then begin
        let limbs = k / limb_bits and bits = k mod limb_bits in
        let la = Array.length ma and lb = Array.length mb in
        let lr = max (la + limbs + 1) lb + 1 in
        let r = Array.make lr 0 in
        let carry = ref 0 in
        for i = 0 to la - 1 do
          let v = (ma.(i) lsl bits) lor !carry in
          r.(i + limbs) <- v land limb_mask;
          carry := v lsr limb_bits
        done;
        r.(la + limbs) <- !carry;
        add_into r 0 mb 0 lb;
        make_sm sa r
      end
      else add_slow (shift_left a k) b

(* ------------------------------------------------------------------ *)
(* Division.                                                           *)
(* ------------------------------------------------------------------ *)

(* Magnitude shifted left by sh in [0, limb_bits); len+1 limbs, top may
   be zero. *)
let shl_mag a sh =
  let la = Array.length a in
  let r = Array.make (la + 1) 0 in
  let carry = ref 0 in
  for i = 0 to la - 1 do
    let v = (a.(i) lsl sh) lor !carry in
    r.(i) <- v land limb_mask;
    carry := v lsr limb_bits
  done;
  r.(la) <- !carry;
  r

(* Knuth's Algorithm D.  [a], [b] are magnitudes with [cmp_mag a b >= 0]
   and [Array.length b >= 2]; returns the quotient magnitude and the
   nonnegative remainder. *)
let divmod_mag_knuth a b =
  (* Normalize so the divisor's top limb has its high bit set. *)
  let top = b.(Array.length b - 1) in
  let rec shift_for k = if (top lsl k) land (1 lsl (limb_bits - 1)) <> 0 then k else shift_for (k + 1) in
  let sh = shift_for 0 in
  let u = shl_mag a sh in
  (* The divisor's top limb cannot carry out, so its length is stable. *)
  let v = Array.sub (shl_mag b sh) 0 (Array.length b) in
  let n = Array.length v in
  let m = Array.length u - n in
  let m = if m < 0 then 0 else m in
  (* Working copy of the dividend with one extra high limb. *)
  let w = Array.make (Array.length u + 1) 0 in
  Array.blit u 0 w 0 (Array.length u);
  let q = Array.make (m + 1) 0 in
  let vn1 = v.(n - 1) and vn2 = v.(n - 2) in
  for j = m downto 0 do
    (* Estimate the quotient limb from the top two/three limbs. *)
    let num = (w.(j + n) lsl limb_bits) lor w.(j + n - 1) in
    let qhat = ref (num / vn1) and rhat = ref (num mod vn1) in
    let adjust = ref true in
    while !adjust do
      if !qhat >= base || !qhat * vn2 > (!rhat lsl limb_bits) lor w.(j + n - 2) then begin
        decr qhat;
        rhat := !rhat + vn1;
        if !rhat >= base then adjust := false
      end
      else adjust := false
    done;
    (* Multiply and subtract. *)
    let borrow = ref 0 and carry = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr limb_bits;
      let d = w.(i + j) - (p land limb_mask) - !borrow in
      if d < 0 then begin
        w.(i + j) <- d + base;
        borrow := 1
      end
      else begin
        w.(i + j) <- d;
        borrow := 0
      end
    done;
    let d = w.(j + n) - !carry - !borrow in
    if d < 0 then begin
      (* qhat was one too large: add the divisor back. *)
      w.(j + n) <- d + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let s = w.(i + j) + v.(i) + !c in
        w.(i + j) <- s land limb_mask;
        c := s lsr limb_bits
      done;
      w.(j + n) <- (w.(j + n) + !c) land limb_mask
    end
    else w.(j + n) <- d;
    q.(j) <- !qhat
  done;
  (* Denormalize the remainder (the low n limbs of w). *)
  let r = Array.make n 0 in
  for i = 0 to n - 1 do
    let lo = w.(i) lsr sh in
    let hi = if sh > 0 && i + 1 < n then (w.(i + 1) lsl (limb_bits - sh)) land limb_mask else 0 in
    r.(i) <- lo lor hi
  done;
  (q, r)

(* Divide a magnitude by a single limb. *)
let divmod_mag_limb a d =
  let la = Array.length a in
  let q = Array.make la 0 in
  let r = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!r lsl limb_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (q, !r)

let divmod x y =
  match (x, y) with
  | _, S 0 -> raise Division_by_zero
  | S 0, _ -> (S 0, S 0)
  (* OCaml's native division truncates towards zero, exactly the
     contract; operands exclude [min_int] so nothing can trap. *)
  | S a, S b -> (S (a / b), S (a mod b))
  | S _, L _ -> (S 0, x) (* |y| >= 2^62 > |x| *)
  | L a, S b ->
      let bb = Stdlib.abs b in
      if bb < base then begin
        let q, r = divmod_mag_limb a.mag bb in
        (make_sm (a.sign * Stdlib.compare b 0) q, S (if a.sign < 0 then -r else r))
      end
      else begin
        let q, r = divmod_mag_knuth a.mag (mag_of_pos bb) in
        (make_sm (a.sign * Stdlib.compare b 0) q, make_sm a.sign r)
      end
  | L a, L b ->
      if cmp_mag a.mag b.mag < 0 then (S 0, x)
      else begin
        let q, r = divmod_mag_knuth a.mag b.mag in
        (make_sm (a.sign * b.sign) q, make_sm a.sign r)
      end

let div x y = fst (divmod x y)
let rem x y = snd (divmod x y)

let pow t k =
  if k < 0 then invalid_arg "Bigint.pow";
  let rec go acc b k = if k = 0 then acc else go (if k land 1 = 1 then mul acc b else acc) (mul b b) (k lsr 1) in
  go one t k

let trailing_zeros t =
  match t with
  | S 0 -> invalid_arg "Bigint.trailing_zeros: zero"
  | S n ->
      let v = Stdlib.abs n in
      int_bits (v land -v) - 1
  | L b ->
      let i = ref 0 in
      while b.mag.(!i) = 0 do
        incr i
      done;
      let limb = b.mag.(!i) in
      (!i * limb_bits) + int_bits (limb land -limb) - 1

(* ------------------------------------------------------------------ *)
(* Small-operand helpers.                                              *)
(* ------------------------------------------------------------------ *)

let add_int t n = add t (of_int n)

let mul_int t n =
  match t with
  | S _ -> mul t (of_int n)
  | L b ->
      if n = 0 then S 0
      else begin
        let na = Stdlib.abs n in
        let s = if n < 0 then -b.sign else b.sign in
        if na < base then make_sm s (mul_mag_int b.mag na) else mul t (of_int n)
      end

let to_int = function S n -> Some n | L _ -> None
let to_int_exn t = match to_int t with Some n -> n | None -> failwith "Bigint.to_int_exn: overflow"

(* ------------------------------------------------------------------ *)
(* GCD.                                                                *)
(* ------------------------------------------------------------------ *)

(* Native Euclid; the fixnum tier's division is a single instruction, so
   the classic remainder loop beats binary gcd here. *)
let rec igcd a b = if b = 0 then a else igcd b (a mod b)

(* Lehmer acceleration (Knuth Vol. 2, Algorithm L): run Euclid on the
   62-bit leading digits of both operands, folding the quotient sequence
   into a 2x2 cofactor matrix, and apply the whole matrix to the full
   operands in two O(n) passes.  The double-quotient test — the step is
   taken only when the quotient is the same under both one-sided
   roundings of the truncated digits — guarantees the simulated steps
   are exactly the steps full-precision Euclid would take, so the matrix
   has determinant +-1 and preserves the gcd.

   The inner loop stops once the leading remainder drops below 2^32;
   with u < 2^62 that bounds the matrix entries by u/v < 2^30 and the
   next quotient by ~2^30, so every intermediate product stays inside
   the native int and every matrix-vector product takes the single-limb
   [mul_int] fast path.  Each round therefore collapses ~30 bits' worth
   of quotients (a dozen-plus Euclid steps) into one linear pass. *)
let lehmer_cut = 1 lsl 32

let gcd a b =
  let a = abs a and b = abs b in
  if is_zero a then b
  else if is_zero b then a
  else begin
    let rec loop a b =
      (* a >= b > 0 *)
      match (a, b) with
      | S x, S y -> S (igcd x y)
      | _, S y -> (
          (* One wide-by-native remainder lands both on the fixnum tier. *)
          match rem a b with S r -> S (igcd y r) | L _ -> assert false)
      | _ ->
          let la = bit_length a in
          let k = la - 62 in
          let uh = to_int_exn (shift_right a k) and vh = to_int_exn (shift_right b k) in
          let u = ref uh and v = ref vh in
          let ma = ref 1 and mb = ref 0 and mc = ref 0 and md = ref 1 in
          let progress = ref false in
          let stepping = ref true in
          while !stepping && !v >= lehmer_cut do
            (* Entry bounds keep both denominators positive here. *)
            let q = (!u + !ma) / (!v + !mc) in
            if q <> (!u + !mb) / (!v + !md) then stepping := false
            else begin
              let t = !ma - (q * !mc) in
              ma := !mc;
              mc := t;
              let t = !mb - (q * !md) in
              mb := !md;
              md := t;
              let t = !u - (q * !v) in
              u := !v;
              v := t;
              progress := true
            end
          done;
          if not !progress then begin
            (* Leading digits decide nothing (size gap > 30 bits, or an
               immediately ambiguous quotient): one exact division step
               removes the whole gap instead. *)
            let r = rem a b in
            if is_zero r then b else loop b r
          end
          else begin
            let a' = abs (add (mul_int a !ma) (mul_int b !mb)) in
            let b' = abs (add (mul_int a !mc) (mul_int b !md)) in
            if is_zero b' then a' else loop a' b'
          end
    in
    if compare a b >= 0 then loop a b else loop b a
  end

let to_float t =
  match t with
  (* The hardware conversion is already round-to-nearest-even. *)
  | S n -> float_of_int n
  | L b ->
      (* Keep the top 53 bits and round with an explicit round/sticky
         pair so huge values stay within half an ulp. *)
      let bl = bit_length t in
      let sh = bl - 53 in
      let a = abs t in
      let head = to_int_exn (shift_right a sh) in
      let round = testbit a (sh - 1) in
      let head = if round && (low_bits_nonzero a (sh - 1) || head land 1 = 1) then head + 1 else head in
      let v = ldexp (float_of_int head) sh in
      if b.sign < 0 then -.v else v

(* ------------------------------------------------------------------ *)
(* Decimal conversions.                                                *)
(* ------------------------------------------------------------------ *)

let chunk_base = 1_000_000_000 (* 10^9 < 2^31: one limb, nine digits *)

let to_string t =
  match t with
  | S n -> string_of_int n
  | L b ->
      (* Peel 9-digit chunks off an in-place working copy. *)
      let m = Array.copy b.mag in
      let n = ref (Array.length m) in
      let chunks = ref [] in
      while !n > 0 do
        let r = ref 0 in
        for i = !n - 1 downto 0 do
          let cur = (!r lsl limb_bits) lor m.(i) in
          m.(i) <- cur / chunk_base;
          r := cur mod chunk_base
        done;
        while !n > 0 && m.(!n - 1) = 0 do
          decr n
        done;
        chunks := !r :: !chunks
      done;
      let buf = Buffer.create 32 in
      if b.sign < 0 then Buffer.add_char buf '-';
      (match !chunks with
      | [] -> Buffer.add_char buf '0'
      | first :: rest ->
          Buffer.add_string buf (string_of_int first);
          List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
      Buffer.contents buf

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  (* Parse a digit run into a native int (the run is at most 18 digits,
     well inside the fixnum range). *)
  let chunk i n =
    let v = ref 0 in
    for j = i to i + n - 1 do
      let c = s.[j] in
      if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit";
      v := (!v * 10) + (Char.code c - Char.code '0')
    done;
    !v
  in
  let ndigits = len - start in
  let v =
    if ndigits <= 18 then of_int (chunk start ndigits)
    else begin
      (* 9-digit chunks: one [mul_int]/[add_int] pass per chunk instead
         of one full-width multiply per digit. *)
      let first = ((ndigits - 1) mod 9) + 1 in
      let acc = ref (of_int (chunk start first)) in
      let i = ref (start + first) in
      while !i < len do
        acc := add_int (mul_int !acc chunk_base) (chunk !i 9);
        i := !i + 9
      done;
      !acc
    end
  in
  if negative then neg v else v

let pp fmt t = Format.pp_print_string fmt (to_string t)
