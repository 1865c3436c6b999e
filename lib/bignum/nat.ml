(* Little-endian arrays of 30-bit limbs. Invariant: the most significant
   limb (last element) is non-zero; zero is the empty array. 30-bit limbs
   guarantee that a limb product plus carries fits in a 63-bit OCaml int. *)

let base_bits = 30
let base = 1 lsl base_bits
let mask = base - 1

type t = int array

let zero : t = [||]
let one : t = [| 1 |]
let two : t = [| 2 |]

let is_zero x = Array.length x = 0

let normalize (a : int array) : t =
  let n = ref (Array.length a) in
  while !n > 0 && a.(!n - 1) = 0 do
    decr n
  done;
  if !n = Array.length a then a else Array.sub a 0 !n

let of_int n =
  if n < 0 then invalid_arg "Nat.of_int: negative";
  if n = 0 then zero
  else begin
    let rec limbs n = if n = 0 then [] else (n land mask) :: limbs (n lsr base_bits) in
    Array.of_list (limbs n)
  end

let compare (a : t) (b : t) =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Stdlib.compare la lb
  else begin
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then Stdlib.compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)
  end

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let bits_in_limb l =
  (* number of significant bits in a single limb, 0 < l < base *)
  let rec go l acc = if l = 0 then acc else go (l lsr 1) (acc + 1) in
  go l 0

let bit_length x =
  let n = Array.length x in
  if n = 0 then 0 else ((n - 1) * base_bits) + bits_in_limb x.(n - 1)

let to_int x =
  if bit_length x > 62 then None
  else begin
    let v = ref 0 in
    for i = Array.length x - 1 downto 0 do
      v := (!v lsl base_bits) lor x.(i)
    done;
    Some !v
  end

let test_bit x i =
  let limb = i / base_bits and bit = i mod base_bits in
  limb < Array.length x && (x.(limb) lsr bit) land 1 = 1

(* Bits [lo, lo + w) of [x], for 0 < w <= base_bits: they span at most two
   limbs. *)
let bits_at (x : t) lo w =
  let limb = lo / base_bits and off = lo mod base_bits and n = Array.length x in
  let low = if limb < n then x.(limb) lsr off else 0 in
  let high = if limb + 1 < n then x.(limb + 1) lsl (base_bits - off) else 0 in
  (low lor high) land ((1 lsl w) - 1)

let is_even x = Array.length x = 0 || x.(0) land 1 = 0
let is_odd x = not (is_even x)

let add (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  let n = Stdlib.max la lb in
  let r = Array.make (n + 1) 0 in
  let carry = ref 0 in
  for i = 0 to n - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land mask;
    carry := s lsr base_bits
  done;
  r.(n) <- !carry;
  normalize r

let sub (a : t) (b : t) : t =
  if compare a b < 0 then invalid_arg "Nat.sub: would be negative";
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin
      r.(i) <- d + base;
      borrow := 1
    end else begin
      r.(i) <- d;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  normalize r

let mul (a : t) (b : t) : t =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then zero
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let p = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- p land mask;
        carry := p lsr base_bits
      done;
      r.(i + lb) <- r.(i + lb) + !carry
    done;
    normalize r
  end

(* Division of [a] by a single limb [d]; returns quotient array and
   remainder limb. *)
let short_divmod (a : t) (d : int) : t * int =
  assert (d > 0 && d < base);
  let n = Array.length a in
  let q = Array.make n 0 in
  let r = ref 0 in
  for i = n - 1 downto 0 do
    let cur = (!r lsl base_bits) lor a.(i) in
    q.(i) <- cur / d;
    r := cur mod d
  done;
  (normalize q, !r)

(* Shift an array left by [s] bits (0 <= s < base_bits), result has one
   extra limb to hold the overflow. *)
let shl_limbs (a : int array) (s : int) : int array =
  let n = Array.length a in
  let r = Array.make (n + 1) 0 in
  if s = 0 then Array.blit a 0 r 0 n
  else begin
    let carry = ref 0 in
    for i = 0 to n - 1 do
      let v = (a.(i) lsl s) lor !carry in
      r.(i) <- v land mask;
      carry := v lsr base_bits
    done;
    r.(n) <- !carry
  end;
  r

(* Shift an array right by [s] bits (0 <= s < base_bits). *)
let shr_limbs (a : int array) (s : int) : int array =
  let n = Array.length a in
  let r = Array.make n 0 in
  if s = 0 then Array.blit a 0 r 0 n
  else
    for i = 0 to n - 1 do
      let hi = if i + 1 < n then a.(i + 1) else 0 in
      r.(i) <- (a.(i) lsr s) lor ((hi lsl (base_bits - s)) land mask)
    done;
  r

(* Knuth algorithm D (TAOCP vol. 2, 4.3.1). Requires [Array.length b >= 2]
   and [a >= b]. *)
let knuth_divmod (a : t) (b : t) : t * t =
  let n = Array.length b in
  let m = Array.length a - n in
  assert (n >= 2 && m >= 0);
  (* D1: normalize so the divisor's top limb has its high bit set. *)
  let s = base_bits - bits_in_limb b.(n - 1) in
  let u = shl_limbs a s in
  (* [u] has m+n+1 limbs (the shl added one). *)
  let v = shl_limbs b s in
  assert (v.(n) = 0);
  let q = Array.make (m + 1) 0 in
  for j = m downto 0 do
    (* D3: estimate qhat from the top two limbs of u against v's top. *)
    let top = (u.(j + n) lsl base_bits) lor u.(j + n - 1) in
    let qhat = ref (top / v.(n - 1)) in
    let rhat = ref (top mod v.(n - 1)) in
    let adjusting = ref true in
    while !adjusting do
      if !qhat >= base
         || !qhat * v.(n - 2) > (!rhat lsl base_bits) lor u.(j + n - 2)
      then begin
        decr qhat;
        rhat := !rhat + v.(n - 1);
        if !rhat >= base then adjusting := false
      end
      else adjusting := false
    done;
    (* D4: multiply and subtract u[j..j+n] -= qhat * v. *)
    let carry = ref 0 and borrow = ref 0 in
    for i = 0 to n - 1 do
      let p = (!qhat * v.(i)) + !carry in
      carry := p lsr base_bits;
      let d = u.(i + j) - (p land mask) - !borrow in
      if d < 0 then begin
        u.(i + j) <- d + base;
        borrow := 1
      end else begin
        u.(i + j) <- d;
        borrow := 0
      end
    done;
    let d = u.(j + n) - !carry - !borrow in
    (* D5/D6: if the subtraction went negative, qhat was one too big. *)
    if d < 0 then begin
      u.(j + n) <- d + base;
      decr qhat;
      let c = ref 0 in
      for i = 0 to n - 1 do
        let sum = u.(i + j) + v.(i) + !c in
        u.(i + j) <- sum land mask;
        c := sum lsr base_bits
      done;
      u.(j + n) <- (u.(j + n) + !c) land mask
    end
    else u.(j + n) <- d;
    q.(j) <- !qhat
  done;
  (* D8: the remainder is u[0..n-1] shifted back. *)
  let r = shr_limbs (Array.sub u 0 n) s in
  (normalize q, normalize r)

let divmod (a : t) (b : t) : t * t =
  if is_zero b then raise Division_by_zero;
  if compare a b < 0 then (zero, a)
  else if Array.length b = 1 then begin
    let q, r = short_divmod a b.(0) in
    (q, of_int r)
  end
  else knuth_divmod a b

let rem a b = snd (divmod a b)

let shift_left x k =
  if k < 0 then invalid_arg "Nat.shift_left: negative shift";
  if is_zero x || k = 0 then x
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    let shifted = shl_limbs x bits in
    let r = Array.make (limbs + Array.length shifted) 0 in
    Array.blit shifted 0 r limbs (Array.length shifted);
    normalize r
  end

let shift_right x k =
  if k < 0 then invalid_arg "Nat.shift_right: negative shift";
  if is_zero x || k = 0 then x
  else begin
    let limbs = k / base_bits and bits = k mod base_bits in
    if limbs >= Array.length x then zero
    else begin
      let dropped = Array.sub x limbs (Array.length x - limbs) in
      normalize (shr_limbs dropped bits)
    end
  end

let pow b e =
  if e < 0 then invalid_arg "Nat.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else begin
      let acc = if e land 1 = 1 then mul acc b else acc in
      go acc (mul b b) (e lsr 1)
    end
  in
  go one b e

(* -m0^-1 mod 2^30 for odd m0. Newton's step x <- x (2 - m0 x) doubles the
   correct low bits, and x = m0 starts with 3 (m0 * m0 = 1 mod 8); int
   arithmetic wraps mod 2^63, which 2^30 divides. *)
let neg_inv_limb m0 =
  let x = ref m0 in
  for _ = 1 to 4 do
    x := !x * (2 - (m0 * !x)) land mask
  done;
  - !x land mask

(* Montgomery product a * b / R mod m into [dst], for a, b < m held in
   exactly n = |m| limbs. Each step adds a * b_i and the multiple q m that
   clears the low limb in one pass, then drops that limb (FIOS). A step's
   running sum t_j + a_j b_i + q m_j + carry stays below 2^61, and t stays
   below 2m, so its top limb t_n is 0 or 1. [t] is n + 1 limbs of scratch;
   [dst] is written only after the last read of [a] and [b], so it may be
   either of them. The inner loop's reads are unchecked once the widths
   are. *)
let mont_mul m minv t a b dst =
  let n = Array.length m in
  assert (Array.length a = n && Array.length b = n && Array.length t = n + 1);
  Array.fill t 0 (n + 1) 0;
  let a0 = a.(0) and m0 = m.(0) in
  for i = 0 to n - 1 do
    let bi = b.(i) in
    let s = Array.unsafe_get t 0 + (a0 * bi) in
    let q = s * minv land mask in
    let c = ref ((s + (q * m0)) lsr base_bits) in
    for j = 1 to n - 1 do
      let s =
        Array.unsafe_get t j + (Array.unsafe_get a j * bi) + (q * Array.unsafe_get m j) + !c
      in
      Array.unsafe_set t (j - 1) (s land mask);
      c := s lsr base_bits
    done;
    let s = t.(n) + !c in
    t.(n - 1) <- s land mask;
    t.(n) <- s lsr base_bits
  done;
  (* t < 2m: subtract m once if t >= m; i is t's top limb that differs
     from m's *)
  let i = ref (n - 1) in
  while !i >= 0 && t.(!i) = m.(!i) do
    decr i
  done;
  if t.(n) <> 0 || !i < 0 || t.(!i) > m.(!i) then begin
    let borrow = ref 0 in
    for j = 0 to n - 1 do
      let d = t.(j) - m.(j) - !borrow in
      dst.(j) <- d land mask;
      borrow := if d < 0 then 1 else 0
    done
  end
  else Array.blit t 0 dst 0 n

(* The residues mod m in some representation, each held in exactly |m|
   limbs: [enter] maps any x to a fresh residue, [mul a b dst] writes the
   product of two residues into [dst], which may be [a] or [b], and
   [leave] maps one back. *)
type residues = { enter : t -> t; mul : t -> t -> t -> unit; leave : t -> t }

(* [x] copied into a fresh array of [n] limbs, zero above its own. *)
let pad n x =
  let r = Array.make n 0 in
  Array.blit x 0 r 0 (Array.length x);
  r

(* Montgomery form x R mod m; m must be odd. *)
let montgomery m =
  let n = Array.length m in
  let minv = neg_inv_limb m.(0) and scratch = Array.make (n + 1) 0 in
  let mul a b dst = mont_mul m minv scratch a b dst in
  let r2 = pad n (rem (shift_left one (2 * base_bits * n)) m) in
  let enter x =
    let r = pad n (rem x m) in
    mul r r2 r;
    r
  in
  let leave x =
    let r = pad n one in
    mul x r r;
    normalize r
  in
  { enter; mul; leave }

(* Plain residues reduced by long division: the only representation for
   an even m, which has no Montgomery form. *)
let by_division m =
  let n = Array.length m in
  {
    enter = (fun x -> pad n (rem x m));
    mul = (fun a b dst -> Array.blit (pad n (rem (mul a b) m)) 0 dst 0 n);
    leave = normalize;
  }

(* Window width for a k-bit exponent. Up to 32 bits the exponents are
   public ones such as 65537, too sparse to repay any table; above, they
   are CRT halves and Miller-Rabin exponents (up to 256 bits on 512-bit
   keys), where a 4-bit window costs 14 table products and then about k/4
   multiplies, against about k/2 bit by bit. *)
let window_bits k = if k <= 32 then 1 else 4

(* Fixed-window exponentiation, left to right: the top window's digit
   picks the start from the table, then each lower window squares w times
   and multiplies by table.(digit). The accumulator is a copy, updated in
   place, and never a table slot: the slots start out as one shared
   array, and with a 1-bit window slot 1 is the base. *)
let mod_pow b e m =
  if is_zero m then raise Division_by_zero;
  let r = if is_odd m then montgomery m else by_division m in
  let k = bit_length e in
  let w = window_bits k in
  let digit i = bits_at e (i * w) w in
  (* table.(i) = b^i *)
  let table = Array.make (1 lsl w) (r.enter one) in
  table.(1) <- r.enter b;
  for i = 2 to (1 lsl w) - 1 do
    table.(i) <- Array.make (Array.length m) 0;
    r.mul table.(i - 1) table.(1) table.(i)
  done;
  let top = Stdlib.max 0 ((k - 1) / w) in
  let acc = Array.copy table.(digit top) in
  for i = top - 1 downto 0 do
    for _ = 1 to w do
      r.mul acc acc acc
    done;
    let d = digit i in
    if d <> 0 then r.mul acc table.(d) acc
  done;
  r.leave acc

let rec gcd a b = if is_zero b then a else gcd b (rem a b)

(* Signed values, used only inside the extended Euclid below. *)
type signed = { neg : bool; mag : t }

let s_of_nat mag = { neg = false; mag }

let s_sub_mul x q y =
  (* x - q*y for signed x, y and natural q *)
  let qy = mul q y.mag in
  let qy = { neg = y.neg; mag = qy } in
  (* x - qy *)
  if x.neg = qy.neg then begin
    if compare x.mag qy.mag >= 0 then { neg = x.neg; mag = sub x.mag qy.mag }
    else { neg = not x.neg && not (is_zero (sub qy.mag x.mag)); mag = sub qy.mag x.mag }
  end
  else { neg = x.neg; mag = add x.mag qy.mag }

let mod_inv a m =
  if is_zero m then raise Division_by_zero;
  let a = rem a m in
  if is_zero a then raise Not_found;
  (* Extended Euclid tracking only the coefficient of [a]. *)
  let rec go r0 r1 s0 s1 =
    if is_zero r1 then (r0, s0)
    else begin
      let q, r2 = divmod r0 r1 in
      go r1 r2 s1 (s_sub_mul s0 q s1)
    end
  in
  let g, s = go a m (s_of_nat one) (s_of_nat zero) in
  if not (equal g one) then raise Not_found;
  let x = rem s.mag m in
  if s.neg && not (is_zero x) then sub m x else x

let chunk_base = 1_000_000_000 (* 10^9 < 2^30 *)

let to_string x =
  if is_zero x then "0"
  else begin
    let buf = Buffer.create 32 in
    let rec chunks x acc =
      if is_zero x then acc
      else begin
        let q, r = short_divmod x chunk_base in
        chunks q (r :: acc)
      end
    in
    (match chunks x [] with
     | [] -> assert false
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let to_hex x =
  if is_zero x then "0"
  else begin
    (* print 4 bits at a time from the top *)
    let bits = bit_length x in
    let nibbles = (bits + 3) / 4 in
    let buf = Buffer.create nibbles in
    for i = nibbles - 1 downto 0 do
      Buffer.add_char buf "0123456789abcdef".[bits_at x (i * 4) 4]
    done;
    Buffer.contents buf
  end

let of_string s =
  let fail () = invalid_arg "Nat.of_string: malformed number" in
  if String.length s = 0 then fail ();
  if String.length s > 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X') then begin
    let acc = ref zero in
    for i = 2 to String.length s - 1 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail ()
      in
      acc := add (shift_left !acc 4) (of_int d)
    done;
    !acc
  end
  else begin
    String.iter (function '0' .. '9' -> () | _ -> fail ()) s;
    let acc = ref zero in
    let i = ref 0 in
    let n = String.length s in
    let big_chunk = of_int chunk_base in
    while !i < n do
      let len = Stdlib.min 9 (n - !i) in
      let chunk = int_of_string (String.sub s !i len) in
      let rec pow10 k = if k = 0 then 1 else 10 * pow10 (k - 1) in
      let scale = if len = 9 then big_chunk else of_int (pow10 len) in
      acc := add (mul !acc scale) (of_int chunk);
      i := !i + len
    done;
    !acc
  end

let of_bytes_be s =
  let len = String.length s in
  let r = Array.make (((8 * len) + base_bits - 1) / base_bits) 0 in
  for i = 0 to len - 1 do
    (* byte i from the right holds bits [8i, 8i + 8) *)
    let v = Char.code s.[len - 1 - i] and limb = 8 * i / base_bits and off = 8 * i mod base_bits in
    r.(limb) <- r.(limb) lor ((v lsl off) land mask);
    if off > base_bits - 8 then r.(limb + 1) <- v lsr (base_bits - off)
  done;
  normalize r

let to_bytes_be ?len x =
  let nbytes = (bit_length x + 7) / 8 in
  let out_len =
    match len with
    | None -> Stdlib.max nbytes 1
    | Some l ->
      if nbytes > l then invalid_arg "Nat.to_bytes_be: value too large for len";
      l
  in
  let b = Bytes.make out_len '\000' in
  for i = 0 to nbytes - 1 do
    Bytes.set b (out_len - 1 - i) (Char.chr (bits_at x (8 * i) 8))
  done;
  Bytes.to_string b

let pp fmt x = Format.pp_print_string fmt (to_string x)
