module Nat = Pm_bignum.Nat

let random_bits rng ~bits =
  if bits < 0 then invalid_arg "Prime.random_bits: negative width";
  if bits = 0 then Nat.zero
  else begin
    (* draw 24-bit chunks and assemble *)
    let rec go acc remaining =
      if remaining <= 0 then acc
      else begin
        let take = Stdlib.min 24 remaining in
        let chunk = Prng.bits rng take in
        go (Nat.add (Nat.shift_left acc take) (Nat.of_int chunk)) (remaining - take)
      end
    in
    go Nat.zero bits
  end

let random_below rng n =
  if Nat.is_zero n then invalid_arg "Prime.random_below: zero bound";
  let bits = Nat.bit_length n in
  let rec draw () =
    let candidate = random_bits rng ~bits in
    if Nat.compare candidate n < 0 then candidate else draw ()
  in
  draw ()

let small_primes =
  [ 2; 3; 5; 7; 11; 13; 17; 19; 23; 29; 31; 37; 41; 43; 47; 53; 59; 61; 67;
    71; 73; 79; 83; 89; 97; 101; 103; 107; 109; 113; 127; 131; 137; 139; 149;
    151; 157; 163; 167; 173; 179; 181; 191; 193; 197; 199 ]

(* One Miller-Rabin round with witness [a] against n = d * 2^s + 1. *)
let miller_rabin_round n n1 d s a =
  let x = Nat.mod_pow a d n in
  if Nat.equal x Nat.one || Nat.equal x n1 then true
  else begin
    let rec squarings x i =
      if i >= s - 1 then false
      else begin
        let x = Nat.rem (Nat.mul x x) n in
        if Nat.equal x n1 then true else squarings x (i + 1)
      end
    in
    squarings x 0
  end

let is_probable_prime rng n =
  match Nat.to_int n with
  | Some v when v < 2 -> false
  | Some v when List.mem v small_primes -> true
  | _ ->
    if Nat.is_even n then false
    else if
      List.exists
        (fun p -> Nat.is_zero (Nat.rem n (Nat.of_int p)))
        small_primes
    then false
    else begin
      let n1 = Nat.sub n Nat.one in
      (* write n-1 = d * 2^s with d odd *)
      let rec split d s = if Nat.is_odd d then (d, s) else split (Nat.shift_right d 1) (s + 1) in
      let d, s = split n1 0 in
      let two = Nat.two in
      let n3 = Nat.sub n (Nat.of_int 3) in
      let rec rounds_left k =
        if k = 0 then true
        else begin
          (* witness uniform in [2, n-2] *)
          let a = Nat.add two (random_below rng (Nat.add n3 Nat.one)) in
          if miller_rabin_round n n1 d s a then rounds_left (k - 1) else false
        end
      in
      rounds_left 24
    end

let random_prime rng ~bits =
  if bits < 2 then invalid_arg "Prime.random_prime: need at least 2 bits";
  let top = Nat.add (Nat.shift_left Nat.one (bits - 1)) (Nat.shift_left Nat.one (bits - 2)) in
  let rec search () =
    let low = random_bits rng ~bits:(bits - 2) in
    (* force top two bits and make it odd *)
    let candidate = Nat.add top low in
    let candidate = if Nat.is_even candidate then Nat.add candidate Nat.one else candidate in
    if is_probable_prime rng candidate then candidate else search ()
  in
  search ()
