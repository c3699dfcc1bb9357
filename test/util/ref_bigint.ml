(* Naive reference bignums: the pre-tentpole [Bigint], frozen verbatim.

   This module is the differential-testing oracle for lib/bigint's
   two-tier fixnum/Karatsuba rewrite: single-representation
   sign-magnitude limbs, schoolbook O(n^2) multiplication, binary GCD,
   digit-at-a-time parsing.  It is deliberately boring — do not optimize
   it, or the differential suites in test_bigint.ml lose their anchor.

   Original invariants:
   - [mag] is little-endian and has no trailing (most significant) zero limb;
   - [sign] is 0 iff [mag] is empty, otherwise -1 or 1.
   Base 2^31 keeps every limb product below 2^62, inside OCaml's native
   [int] on 64-bit platforms. *)

let limb_bits = 31
let base = 1 lsl limb_bits
let limb_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* Strip most-significant zero limbs and normalize the zero sign. *)
let make sign mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do
    decr n
  done;
  if !n = 0 then zero
  else if !n = Array.length mag then { sign; mag }
  else { sign; mag = Array.sub mag 0 !n }

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n < 0 then -1 else 1 in
    (* Peel limbs off the negative of [n] so [min_int], whose absolute
       value is not representable, needs no special case. *)
    let rec limbs acc m =
      if m = 0 then List.rev acc else limbs (-(m mod base) :: acc) (m / base)
    in
    make sign (Array.of_list (limbs [] (if n > 0 then -n else n)))
  end

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)
let sign t = t.sign
let is_zero t = t.sign = 0
let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let abs t = if t.sign < 0 then { t with sign = 1 } else t

(* Magnitude comparison: -1, 0, 1. *)
let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let compare x y =
  if x.sign <> y.sign then compare x.sign y.sign
  else if x.sign = 0 then 0
  else x.sign * cmp_mag x.mag y.mag

let equal x y = compare x y = 0

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

let add x y =
  if x.sign = 0 then y
  else if y.sign = 0 then x
  else if x.sign = y.sign then make x.sign (add_mag x.mag y.mag)
  else begin
    match cmp_mag x.mag y.mag with
    | 0 -> zero
    | c when c > 0 -> make x.sign (sub_mag x.mag y.mag)
    | _ -> make y.sign (sub_mag y.mag x.mag)
  end

let sub x y = add x (neg y)

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make (la + lb) 0 in
  for i = 0 to la - 1 do
    let ai = a.(i) in
    if ai <> 0 then begin
      let carry = ref 0 in
      for j = 0 to lb - 1 do
        let s = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- s land limb_mask;
        carry := s lsr limb_bits
      done;
      (* Propagate the final carry; it can span several limbs. *)
      let k = ref (i + lb) in
      while !carry <> 0 do
        let s = r.(!k) + !carry in
        r.(!k) <- s land limb_mask;
        carry := s lsr limb_bits;
        incr k
      done
    end
  done;
  r

let mul x y =
  if x.sign = 0 || y.sign = 0 then zero
  else make (x.sign * y.sign) (mul_mag x.mag y.mag)

let bit_length t =
  let n = Array.length t.mag in
  if n = 0 then 0
  else begin
    let top = t.mag.(n - 1) in
    let rec msb k = if top lsr k <> 0 then k + 1 else msb (k - 1) in
    ((n - 1) * limb_bits) + msb (limb_bits - 1)
  end

let testbit t i =
  let limb = i / limb_bits and off = i mod limb_bits in
  limb < Array.length t.mag && (t.mag.(limb) lsr off) land 1 = 1

let is_even t = t.sign = 0 || t.mag.(0) land 1 = 0

let shift_left t k =
  if k < 0 then invalid_arg "Bigint.shift_left";
  if t.sign = 0 || k = 0 then t
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length t.mag in
    let r = Array.make (la + limbs + 1) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let v = (t.mag.(i) lsl bits) lor !carry in
      r.(i + limbs) <- v land limb_mask;
      carry := v lsr limb_bits
    done;
    r.(la + limbs) <- !carry;
    make t.sign r
  end

let shift_right t k =
  if k < 0 then invalid_arg "Bigint.shift_right";
  if t.sign = 0 || k = 0 then t
  else begin
    let limbs = k / limb_bits and bits = k mod limb_bits in
    let la = Array.length t.mag in
    if limbs >= la then zero
    else begin
      let lr = la - limbs in
      let r = Array.make lr 0 in
      for i = 0 to lr - 1 do
        let lo = t.mag.(i + limbs) lsr bits in
        let hi = if bits > 0 && i + limbs + 1 < la then (t.mag.(i + limbs + 1) lsl (limb_bits - bits)) land limb_mask else 0 in
        r.(i) <- lo lor hi
      done;
      make t.sign r
    end
  end

(* Knuth's Algorithm D on normalized magnitudes.  [a], [b] are magnitudes
   with [cmp_mag a b >= 0] and [Array.length b >= 2]. *)
let divmod_mag_knuth a b =
  (* Normalize so the divisor's top limb has its high bit set. *)
  let top = b.(Array.length b - 1) in
  let rec shift_for k = if (top lsl k) land (1 lsl (limb_bits - 1)) <> 0 then k else shift_for (k + 1) in
  let sh = shift_for 0 in
  let u = make 1 a and v = make 1 b in
  let u = (shift_left u sh).mag and v = (shift_left v sh).mag in
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
  let r = make 1 (Array.sub w 0 n) in
  (q, (shift_right r sh).mag)

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
  if y.sign = 0 then raise Division_by_zero;
  if x.sign = 0 then (zero, zero)
  else if cmp_mag x.mag y.mag < 0 then (zero, x)
  else begin
    let qmag, rmag =
      if Array.length y.mag = 1 then begin
        let q, r = divmod_mag_limb x.mag y.mag.(0) in
        (q, if r = 0 then [||] else [| r |])
      end
      else divmod_mag_knuth x.mag y.mag
    in
    let qsign = x.sign * y.sign in
    (make qsign qmag, make x.sign rmag)
  end

let div x y = fst (divmod x y)
let rem x y = snd (divmod x y)

let pow t k =
  if k < 0 then invalid_arg "Bigint.pow";
  let rec go acc b k = if k = 0 then acc else go (if k land 1 = 1 then mul acc b else acc) (mul b b) (k lsr 1) in
  go one t k

let trailing_zeros t =
  if t.sign = 0 then invalid_arg "Bigint.trailing_zeros: zero";
  let i = ref 0 in
  while t.mag.(!i) = 0 do
    incr i
  done;
  let limb = t.mag.(!i) in
  let rec ctz k = if (limb lsr k) land 1 = 1 then k else ctz (k + 1) in
  (!i * limb_bits) + ctz 0

let gcd a b =
  (* Binary GCD on magnitudes. *)
  let a = abs a and b = abs b in
  if is_zero a then b
  else if is_zero b then a
  else begin
    let za = trailing_zeros a and zb = trailing_zeros b in
    let shift = min za zb in
    let a = ref (shift_right a za) and b = ref (shift_right b zb) in
    while not (is_zero !b) do
      let c = compare !a !b in
      if c > 0 then begin
        let t = !a in
        a := !b;
        b := t
      end;
      b := sub !b !a;
      if not (is_zero !b) then b := shift_right !b (trailing_zeros !b)
    done;
    shift_left !a shift
  end

let add_int t n = add t (of_int n)
let mul_int t n = mul t (of_int n)

let to_int t =
  if t.sign = 0 then Some 0
  else if bit_length t <= 62 then begin
    let v = ref 0 in
    for i = Array.length t.mag - 1 downto 0 do
      v := (!v lsl limb_bits) lor t.mag.(i)
    done;
    Some (t.sign * !v)
  end
  else None

let to_int_exn t = match to_int t with Some n -> n | None -> failwith "Bigint.to_int_exn: overflow"

let to_float t =
  (* Round-to-nearest-even conversion to double: keep the top 53 bits and
     round with an explicit round/sticky pair so huge values stay within
     half an ulp. *)
  if t.sign = 0 then 0.0
  else begin
    let bl = bit_length t in
    if bl <= 53 then float_of_int (to_int_exn t)
    else begin
      let sh = bl - 53 in
      let a = abs t in
      let head = to_int_exn (shift_right a sh) in
      let round = testbit a (sh - 1) in
      let low = sub a (shift_left (shift_right a (sh - 1)) (sh - 1)) in
      let head = if round && ((not (is_zero low)) || head land 1 = 1) then head + 1 else head in
      let v = ldexp (float_of_int head) sh in
      if t.sign < 0 then -.v else v
    end
  end

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let chunks = ref [] in
    let m = ref (abs t) in
    let ten9 = of_int 1_000_000_000 in
    while not (is_zero !m) do
      let q, r = divmod !m ten9 in
      chunks := to_int_exn r :: !chunks;
      m := q
    done;
    let b = Buffer.create 32 in
    if t.sign < 0 then Buffer.add_char b '-';
    (match !chunks with
    | [] -> Buffer.add_char b '0'
    | first :: rest ->
        Buffer.add_string b (string_of_int first);
        List.iter (fun c -> Buffer.add_string b (Printf.sprintf "%09d" c)) rest);
    Buffer.contents b
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty";
  let negative = s.[0] = '-' in
  let start = if negative || s.[0] = '+' then 1 else 0 in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let ten = of_int 10 in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: bad digit";
    acc := add (mul !acc ten) (of_int (Char.code c - Char.code '0'))
  done;
  if negative then neg !acc else !acc

let pp fmt t = Format.pp_print_string fmt (to_string t)
