(* Unit and property tests for Pm_bignum.Nat. *)

open Paramecium
module N = Nat

let nat = Alcotest.testable N.pp N.equal

let n_of_s = N.of_string
let check_nat = Alcotest.check nat

(* --- unit tests ----------------------------------------------------- *)

let test_of_to_int () =
  Alcotest.(check (option int)) "zero" (Some 0) (N.to_int N.zero);
  Alcotest.(check (option int)) "small" (Some 12345) (N.to_int (N.of_int 12345));
  Alcotest.(check (option int))
    "max_int round-trips" (Some max_int)
    (N.to_int (N.of_int max_int));
  Alcotest.check_raises "negative rejected" (Invalid_argument "Nat.of_int: negative")
    (fun () -> ignore (N.of_int (-1)))

let test_string_round_trip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (N.to_string (n_of_s s)))
    [ "0"; "1"; "999999999"; "1000000000"; "123456789012345678901234567890";
      "340282366920938463463374607431768211456" (* 2^128 *) ]

let test_hex () =
  Alcotest.(check string) "hex" "deadbeef" (N.to_hex (n_of_s "0xdeadbeef"));
  check_nat "hex parse" (N.of_int 255) (n_of_s "0xff");
  Alcotest.(check string) "zero hex" "0" (N.to_hex N.zero)

let test_of_string_malformed () =
  List.iter
    (fun s ->
      Alcotest.check_raises ("malformed " ^ s)
        (Invalid_argument "Nat.of_string: malformed number") (fun () ->
          ignore (n_of_s s)))
    [ ""; "abc"; "12x3"; "0xg1"; "-5" ]

let test_add_sub () =
  let a = n_of_s "99999999999999999999999999" in
  let b = n_of_s "1" in
  check_nat "add carries" (n_of_s "100000000000000000000000000") (N.add a b);
  check_nat "sub borrows" a (N.sub (N.add a b) b);
  Alcotest.check_raises "sub underflow" (Invalid_argument "Nat.sub: would be negative")
    (fun () -> ignore (N.sub b a))

let test_mul_known () =
  check_nat "known product"
    (n_of_s "121932631137021795226185032733622923332237463801111263526900")
    (N.mul
       (n_of_s "123456789012345678901234567890")
       (n_of_s "987654321098765432109876543210"));
  check_nat "mul by zero" N.zero (N.mul N.zero (n_of_s "123456789"))

let test_divmod_known () =
  let q, r = N.divmod (n_of_s "1000000000000000000000") (n_of_s "7777777") in
  check_nat "quotient" (n_of_s "128571441428572") q;
  (* 128571441428572 * 7777777 + r = 10^21 *)
  check_nat "reconstruct" (n_of_s "1000000000000000000000")
    (N.add (N.mul q (n_of_s "7777777")) r);
  Alcotest.check_raises "div by zero" Division_by_zero (fun () ->
      ignore (N.divmod N.one N.zero))

let test_shifts () =
  check_nat "shl 1" (N.of_int 2) (N.shift_left N.one 1);
  check_nat "shl 100"
    (n_of_s "1267650600228229401496703205376")
    (N.shift_left N.one 100);
  check_nat "shr inverse" N.one (N.shift_right (N.shift_left N.one 100) 100);
  check_nat "shr to zero" N.zero (N.shift_right (N.of_int 5) 3)

let test_bits () =
  Alcotest.(check int) "bitlen 0" 0 (N.bit_length N.zero);
  Alcotest.(check int) "bitlen 1" 1 (N.bit_length N.one);
  Alcotest.(check int) "bitlen 2^100" 101 (N.bit_length (N.shift_left N.one 100));
  Alcotest.(check bool) "bit 100 set" true (N.test_bit (N.shift_left N.one 100) 100);
  Alcotest.(check bool) "bit 99 clear" false (N.test_bit (N.shift_left N.one 100) 99)

let test_pow () =
  check_nat "2^10" (N.of_int 1024) (N.pow N.two 10);
  check_nat "x^0" N.one (N.pow (n_of_s "123456789") 0);
  check_nat "3^40" (n_of_s "12157665459056928801") (N.pow (N.of_int 3) 40)

let test_mod_pow () =
  (* Fermat: a^(p-1) = 1 mod p for prime p *)
  let p = n_of_s "1000000007" in
  check_nat "fermat" N.one (N.mod_pow (N.of_int 2) (N.sub p N.one) p);
  check_nat "mod 1" N.zero (N.mod_pow (N.of_int 5) (N.of_int 3) N.one);
  check_nat "mod 1, e = 0" N.zero (N.mod_pow (N.of_int 5) N.zero N.one);
  check_nat "mod 2" N.one (N.mod_pow (N.of_int 7) (N.of_int 5) N.two);
  check_nat "mod 2, even base" N.zero (N.mod_pow (N.of_int 6) (N.of_int 5) N.two);
  check_nat "e = 0" N.one (N.mod_pow (N.of_int 9) N.zero p);
  check_nat "e = 0, even m" N.one (N.mod_pow (N.of_int 9) N.zero (N.of_int 10));
  check_nat "b = 0" N.zero (N.mod_pow N.zero (N.of_int 3) p);
  check_nat "0^0" N.one (N.mod_pow N.zero N.zero p);
  Alcotest.check_raises "m = 0" Division_by_zero (fun () ->
      ignore (N.mod_pow N.one N.one N.zero))

let test_gcd_modinv () =
  check_nat "gcd" (N.of_int 6) (N.gcd (N.of_int 48) (N.of_int 18));
  let m = n_of_s "1000000007" in
  let a = n_of_s "123456789" in
  let inv = N.mod_inv a m in
  check_nat "a * a^-1 = 1" N.one (N.rem (N.mul a inv) m);
  Alcotest.check_raises "no inverse" Not_found (fun () ->
      ignore (N.mod_inv (N.of_int 4) (N.of_int 8)))

let test_bytes_round_trip () =
  let x = n_of_s "0x0102030405060708090a" in
  let s = N.to_bytes_be x in
  Alcotest.(check int) "length" 10 (String.length s);
  check_nat "round trip" x (N.of_bytes_be s);
  let padded = N.to_bytes_be ~len:16 x in
  Alcotest.(check int) "padded length" 16 (String.length padded);
  check_nat "padded round trip" x (N.of_bytes_be padded);
  Alcotest.check_raises "too large for len"
    (Invalid_argument "Nat.to_bytes_be: value too large for len") (fun () ->
      ignore (N.to_bytes_be ~len:2 x));
  check_nat "leading zero bytes" (N.of_int 0x0102) (N.of_bytes_be "\000\000\001\002");
  Alcotest.(check string) "leading zeros dropped" "\001\002"
    (N.to_bytes_be (N.of_bytes_be "\000\000\001\002"));
  check_nat "empty string" N.zero (N.of_bytes_be "");
  check_nat "all zero bytes" N.zero (N.of_bytes_be "\000\000\000");
  Alcotest.(check string) "zero is one byte" "\000" (N.to_bytes_be N.zero);
  Alcotest.(check string) "zero padded" "\000\000\000" (N.to_bytes_be ~len:3 N.zero);
  Alcotest.(check string) "zero in no bytes" "" (N.to_bytes_be ~len:0 N.zero)

let test_compare_minmax () =
  let a = n_of_s "100000000000000000000" and b = n_of_s "99999999999999999999" in
  Alcotest.(check bool) "a > b" true (N.compare a b > 0);
  check_nat "min" b (N.min a b);
  check_nat "max" a (N.max a b);
  Alcotest.(check bool) "even" true (N.is_even (N.of_int 42));
  Alcotest.(check bool) "odd" true (N.is_odd (N.of_int 43))

(* --- properties ----------------------------------------------------- *)

(* random naturals up to ~2^120, biased toward interesting small cases *)
let gen_nat =
  QCheck2.Gen.(
    frequency
      [
        (1, return N.zero);
        (1, return N.one);
        (3, map N.of_int (int_bound 1000));
        ( 6,
          map
            (fun parts ->
              List.fold_left
                (fun acc p -> N.add (N.shift_left acc 30) (N.of_int p))
                N.zero parts)
            (list_size (int_range 1 4) (int_bound ((1 lsl 30) - 1))) );
      ])

let arb_nat = QCheck2.Gen.map (fun n -> n) gen_nat

(* the number whose little-endian 30-bit limbs are [limbs] *)
let of_limbs limbs =
  List.fold_right (fun l acc -> N.add (N.shift_left acc 30) (N.of_int l)) limbs N.zero

let limb_max = (1 lsl 30) - 1
let gen_limbs n = QCheck2.Gen.(list_repeat n (int_bound limb_max))

let all_ones k = N.sub (N.shift_left N.one k) N.one

(* Moduli of 1-20 limbs, odd and even, and the all-ones 2^k - 1: with
   k = 30n and the base m - 1, a Montgomery product's partial sums and
   carries reach their largest values. *)
let gen_modulus =
  QCheck2.Gen.(
    frequency
      [
        ( 4,
          map3
            (fun low top odd ->
              let m = of_limbs (low @ [ top ]) in
              if N.is_odd m = odd then m else N.add m N.one)
            (int_bound 19 >>= gen_limbs) (int_range 1 limb_max) bool );
        (1, map all_ones (int_range 1 600));
        (1, map (fun n -> all_ones (30 * n)) (int_range 1 20));
      ])

(* (b, e, m): bases up to a limb wider than m, bases >= m, the base m - 1,
   and exponents of 0-600 bits *)
let gen_mod_pow_case =
  QCheck2.Gen.(
    gen_modulus >>= fun m ->
    let base = map of_limbs (int_bound (((N.bit_length m + 29) / 30) + 1) >>= gen_limbs) in
    triple
      (oneof [ base; map (N.add m) base; return (N.sub m N.one) ])
      (map2 (fun x k -> N.shift_right (of_limbs x) (600 - k)) (gen_limbs 20) (int_bound 600))
      (return m))

(* square-and-multiply with a long division at every step: the reference *)
let ref_mod_pow b e m =
  let b = N.rem b m and r = ref (N.rem N.one m) in
  for i = N.bit_length e - 1 downto 0 do
    r := N.rem (N.mul !r !r) m;
    if N.test_bit e i then r := N.rem (N.mul !r b) m
  done;
  !r

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:300 ~name gen f)

let props =
  [
    prop "add commutative" (QCheck2.Gen.pair arb_nat arb_nat) (fun (a, b) ->
        N.equal (N.add a b) (N.add b a));
    prop "add associative" (QCheck2.Gen.triple arb_nat arb_nat arb_nat)
      (fun (a, b, c) -> N.equal (N.add (N.add a b) c) (N.add a (N.add b c)));
    prop "mul commutative" (QCheck2.Gen.pair arb_nat arb_nat) (fun (a, b) ->
        N.equal (N.mul a b) (N.mul b a));
    prop "mul distributes" (QCheck2.Gen.triple arb_nat arb_nat arb_nat)
      (fun (a, b, c) ->
        N.equal (N.mul a (N.add b c)) (N.add (N.mul a b) (N.mul a c)));
    prop "sub inverts add" (QCheck2.Gen.pair arb_nat arb_nat) (fun (a, b) ->
        N.equal (N.sub (N.add a b) b) a);
    prop "divmod law" (QCheck2.Gen.pair arb_nat arb_nat) (fun (a, b) ->
        if N.is_zero b then QCheck2.assume_fail ()
        else begin
          let q, r = N.divmod a b in
          N.equal a (N.add (N.mul q b) r) && N.compare r b < 0
        end);
    prop "string round trip" arb_nat (fun a -> N.equal a (N.of_string (N.to_string a)));
    prop "bytes round trip" arb_nat (fun a ->
        N.equal a (N.of_bytes_be (N.to_bytes_be a)));
    prop "shift round trip" (QCheck2.Gen.pair arb_nat (QCheck2.Gen.int_bound 80))
      (fun (a, k) -> N.equal a (N.shift_right (N.shift_left a k) k));
    prop "bit_length bounds" arb_nat (fun a ->
        if N.is_zero a then N.bit_length a = 0
        else begin
          let bl = N.bit_length a in
          N.compare a (N.shift_left N.one bl) < 0
          && N.compare a (N.shift_left N.one (bl - 1)) >= 0
        end);
    prop "mod_pow matches pow for small args"
      (QCheck2.Gen.triple (QCheck2.Gen.int_bound 30) (QCheck2.Gen.int_bound 8)
         (QCheck2.Gen.int_range 1 1000))
      (fun (b, e, m) ->
        let m = N.of_int m in
        N.equal
          (N.mod_pow (N.of_int b) (N.of_int e) m)
          (N.rem (N.pow (N.of_int b) e) m));
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:200 ~name:"mod_pow matches the reference on multi-limb moduli"
         ~print:(fun (b, e, m) ->
           Printf.sprintf "b=0x%s e=0x%s m=0x%s" (N.to_hex b) (N.to_hex e) (N.to_hex m))
         gen_mod_pow_case
         (fun (b, e, m) -> N.equal (N.mod_pow b e m) (ref_mod_pow b e m)));
    prop "gcd divides both" (QCheck2.Gen.pair arb_nat arb_nat) (fun (a, b) ->
        if N.is_zero a && N.is_zero b then true
        else begin
          let g = N.gcd a b in
          (N.is_zero a || N.is_zero (N.rem a g))
          && (N.is_zero b || N.is_zero (N.rem b g))
        end);
  ]

let () =
  Alcotest.run "bignum"
    [
      ( "nat-unit",
        [
          Alcotest.test_case "of/to int" `Quick test_of_to_int;
          Alcotest.test_case "string round trip" `Quick test_string_round_trip;
          Alcotest.test_case "hex" `Quick test_hex;
          Alcotest.test_case "malformed strings" `Quick test_of_string_malformed;
          Alcotest.test_case "add/sub" `Quick test_add_sub;
          Alcotest.test_case "mul known" `Quick test_mul_known;
          Alcotest.test_case "divmod known" `Quick test_divmod_known;
          Alcotest.test_case "shifts" `Quick test_shifts;
          Alcotest.test_case "bits" `Quick test_bits;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "mod_pow" `Quick test_mod_pow;
          Alcotest.test_case "gcd/modinv" `Quick test_gcd_modinv;
          Alcotest.test_case "bytes round trip" `Quick test_bytes_round_trip;
          Alcotest.test_case "compare/min/max" `Quick test_compare_minmax;
        ] );
      ("nat-properties", props);
    ]
