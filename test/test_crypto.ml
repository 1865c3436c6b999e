(* Tests for Pm_crypto: PRNG determinism, SHA-256 against FIPS vectors,
   Miller-Rabin, RSA sign/verify. *)

open Paramecium

(* --- prng ----------------------------------------------------------- *)

let test_prng_determinism () =
  let a = Prng.create ~seed:7 and b = Prng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Prng.bits a 30) (Prng.bits b 30)
  done;
  let c = Prng.create ~seed:8 in
  let differs = ref false in
  for _ = 1 to 20 do
    if Prng.bits a 30 <> Prng.bits c 30 then differs := true
  done;
  Alcotest.(check bool) "different seeds differ" true !differs

let test_prng_copy_split () =
  let a = Prng.create ~seed:99 in
  let b = Prng.copy a in
  Alcotest.(check int) "copy tracks" (Prng.bits a 20) (Prng.bits b 20);
  let c = Prng.split a in
  let same = ref true in
  for _ = 1 to 20 do
    if Prng.bits a 20 <> Prng.bits c 20 then same := false
  done;
  Alcotest.(check bool) "split independent" false !same

let test_prng_bounds () =
  let r = Prng.create ~seed:1 in
  for _ = 1 to 1000 do
    let v = Prng.int r 17 in
    if not (v >= 0 && v < 17) then Alcotest.failf "out of range: %d" v
  done;
  Alcotest.(check int) "bits 0" 0 (Prng.bits r 0);
  Alcotest.check_raises "bits 63 rejected"
    (Invalid_argument "Prng.bits: need 0 <= n <= 62") (fun () ->
      ignore (Prng.bits r 63));
  Alcotest.check_raises "int 0 rejected"
    (Invalid_argument "Prng.int: bound must be positive") (fun () ->
      ignore (Prng.int r 0))

let test_prng_uniformish () =
  (* crude sanity: each of 8 buckets gets 8-20% of draws *)
  let r = Prng.create ~seed:123 in
  let buckets = Array.make 8 0 in
  let n = 8000 in
  for _ = 1 to n do
    let v = Prng.int r 8 in
    buckets.(v) <- buckets.(v) + 1
  done;
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "bucket %d balanced (%d)" i c)
        true
        (c > n / 13 && c < n / 5))
    buckets

let test_prng_bytes_float () =
  let r = Prng.create ~seed:5 in
  Alcotest.(check int) "bytes length" 33 (String.length (Prng.bytes r 33));
  for _ = 1 to 100 do
    let f = Prng.float r in
    if not (f >= 0.0 && f < 1.0) then Alcotest.failf "float out of range: %f" f
  done

(* --- sha256 ---------------------------------------------------------- *)

(* FIPS 180-4 / NIST CAVS reference vectors *)
let sha_vectors =
  [
    ("", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
    ("abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
    ( "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
      "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1" );
    ( "The quick brown fox jumps over the lazy dog",
      "d7a8fbb307d7809469ca9abcb0082e4f8d5651e46d3cdb762d02d0bf37c9e592" );
  ]

let test_sha256_vectors () =
  List.iter
    (fun (input, expect) ->
      Alcotest.(check string)
        (Printf.sprintf "sha256(%d bytes)" (String.length input))
        expect (Sha256.hex_digest input))
    sha_vectors

let test_sha256_million_a () =
  (* the classic FIPS long test *)
  let ctx = Sha256.init () in
  let chunk = String.make 1000 'a' in
  for _ = 1 to 1000 do
    Sha256.update ctx chunk
  done;
  Alcotest.(check string) "million a's"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.to_hex (Sha256.finalize ctx))

let test_sha256_incremental_equals_oneshot () =
  let data = String.init 1000 (fun i -> Char.chr (i mod 256)) in
  (* split at every boundary class: 0, mid-block, block, multi-block *)
  List.iter
    (fun cut ->
      let ctx = Sha256.init () in
      Sha256.update ctx (String.sub data 0 cut);
      Sha256.update ctx (String.sub data cut (String.length data - cut));
      Alcotest.(check string)
        (Printf.sprintf "split at %d" cut)
        (Sha256.hex_digest data)
        (Sha256.to_hex (Sha256.finalize ctx)))
    [ 0; 1; 55; 56; 63; 64; 65; 128; 999 ]

let test_sha256_finalize_once () =
  let ctx = Sha256.init () in
  Sha256.update ctx "x";
  ignore (Sha256.finalize ctx);
  Alcotest.check_raises "double finalize"
    (Invalid_argument "Sha256.finalize: context already finalized") (fun () ->
      ignore (Sha256.finalize ctx))

(* --- primes ---------------------------------------------------------- *)

let test_small_primes () =
  let rng = Prng.create ~seed:11 in
  let primes = [ 2; 3; 5; 7; 11; 101; 211; 65537; 1000000007 ] in
  let composites = [ 0; 1; 4; 9; 221 (* 13*17 *); 196617; 561 (* Carmichael *) ] in
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Printf.sprintf "%d prime" p)
        true
        (Prime.is_probable_prime rng (Nat.of_int p)))
    primes;
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Printf.sprintf "%d composite" c)
        false
        (Prime.is_probable_prime rng (Nat.of_int c)))
    composites

let test_random_prime_width () =
  let rng = Prng.create ~seed:17 in
  List.iter
    (fun bits ->
      let p = Prime.random_prime rng ~bits in
      Alcotest.(check int) (Printf.sprintf "%d-bit prime" bits) bits (Nat.bit_length p);
      Alcotest.(check bool) "odd" true (Nat.is_odd p))
    [ 16; 32; 64; 128 ]

let test_random_below () =
  let rng = Prng.create ~seed:23 in
  let bound = Nat.of_string "1000000000000000000000" in
  for _ = 1 to 200 do
    let v = Prime.random_below rng bound in
    if Nat.compare v bound >= 0 then Alcotest.fail "random_below out of range"
  done

(* --- rsa ------------------------------------------------------------- *)

let test_rsa_sign_verify () =
  let rng = Prng.create ~seed:42 in
  let key = Rsa.generate rng ~bits:512 in
  let digest = Sha256.digest "component code" in
  let signature = Rsa.sign key digest in
  Alcotest.(check bool) "verifies" true (Rsa.verify key.Rsa.pub ~digest ~signature);
  Alcotest.(check bool) "wrong digest fails" false
    (Rsa.verify key.Rsa.pub ~digest:(Sha256.digest "tampered") ~signature);
  let corrupted = Bytes.of_string signature in
  Bytes.set corrupted 10 (Char.chr (Char.code (Bytes.get corrupted 10) lxor 1));
  Alcotest.(check bool) "corrupt signature fails" false
    (Rsa.verify key.Rsa.pub ~digest ~signature:(Bytes.to_string corrupted));
  let other = Rsa.generate rng ~bits:512 in
  Alcotest.(check bool) "wrong key fails" false
    (Rsa.verify other.Rsa.pub ~digest ~signature)

let test_rsa_deterministic_signatures () =
  let rng = Prng.create ~seed:42 in
  let key = Rsa.generate rng ~bits:512 in
  let d = Sha256.digest "x" in
  Alcotest.(check bool) "deterministic" true
    (String.equal (Rsa.sign key d) (Rsa.sign key d))

let test_rsa_encrypt_decrypt () =
  let rng = Prng.create ~seed:7 in
  let key = Rsa.generate rng ~bits:256 in
  let m = Nat.of_string "123456789012345" in
  let c = Rsa.encrypt key.Rsa.pub m in
  Alcotest.(check bool) "ciphertext differs" false (Nat.equal c m);
  Alcotest.(check bool) "round trip" true (Nat.equal m (Rsa.decrypt key c));
  Alcotest.check_raises "message too large"
    (Invalid_argument "Rsa.encrypt: message >= modulus") (fun () ->
      ignore (Rsa.encrypt key.Rsa.pub (Nat.shift_left Nat.one 300)))

let test_rsa_fingerprint () =
  let rng = Prng.create ~seed:3 in
  let a = Rsa.generate rng ~bits:256 in
  let b = Rsa.generate rng ~bits:256 in
  Alcotest.(check int) "fingerprint length" 16
    (String.length (Rsa.fingerprint a.Rsa.pub));
  Alcotest.(check bool) "distinct keys, distinct prints" false
    (String.equal (Rsa.fingerprint a.Rsa.pub) (Rsa.fingerprint b.Rsa.pub))

let test_rsa_key_width () =
  let rng = Prng.create ~seed:15 in
  List.iter
    (fun bits ->
      let k = Rsa.generate rng ~bits in
      Alcotest.(check bool)
        (Printf.sprintf "%d-bit modulus" bits)
        true
        (k.Rsa.bits >= bits - 1 && k.Rsa.bits <= bits))
    [ 128; 256; 512 ]

(* Pinned at a commit that signed with the textbook m^d mod n: a drift
   in key generation's draws, the padding or the private-key path fails
   here by name. *)
let test_rsa_known_answer () =
  let key = Rsa.generate (Prng.create ~seed:1) ~bits:512 in
  Alcotest.(check string) "fingerprint" "bf8623ce87fe1f53" (Rsa.fingerprint key.Rsa.pub);
  Alcotest.(check string) "signature"
    "73ddd344648162a9d2deed82dd44915cb834664c151d45734dcc67d6426aa30d"
    (Sha256.hex_digest (Rsa.sign key (Sha256.digest "paramecium")))

(* --- properties ------------------------------------------------------ *)

let prop name gen f = QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:50 ~name gen f)

let shared_key =
  lazy
    (let rng = Prng.create ~seed:1234 in
     Rsa.generate rng ~bits:512)

(* The textbook private operation, with d recomputed from p and q, and
   the signature block rebuilt by hand: 00 01 ff.. 00 digest. *)
let textbook_sign key digest =
  let pub = key.Rsa.pub and len = Rsa.modulus_bytes key.Rsa.pub in
  let d = Nat.mod_inv pub.Rsa.e (Nat.mul (Nat.sub key.Rsa.p Nat.one) (Nat.sub key.Rsa.q Nat.one)) in
  let block = "\000\001" ^ String.make (len - 3 - String.length digest) '\255' ^ "\000" ^ digest in
  Nat.to_bytes_be ~len (Nat.mod_pow (Nat.of_bytes_be block) d pub.Rsa.n)

let props =
  [
    prop "rsa: CRT sign equals textbook m^d mod n, decrypt inverts encrypt"
      QCheck2.Gen.(triple (int_bound 1_000_000) (int_range 64 512) (string_size (return 32)))
      (fun (seed, bits, digest) ->
        let key = Rsa.generate (Prng.create ~seed) ~bits in
        let pub = key.Rsa.pub in
        let m = Nat.rem (Nat.of_bytes_be digest) pub.Rsa.n in
        (* the padding takes 11 bytes beside the digest: a modulus of
           fewer than 11 bytes cannot sign, and a short one signs a prefix *)
        let room = Rsa.modulus_bytes pub - 11 in
        let prefix = String.sub digest 0 (max 0 (min 32 room)) in
        Nat.equal (Nat.mul key.Rsa.p key.Rsa.q) pub.Rsa.n
        && (room < 0 || String.equal (Rsa.sign key prefix) (textbook_sign key prefix))
        && Nat.equal (Rsa.decrypt key (Rsa.encrypt pub m)) m);
    prop "sha256 avalanche: flipping a bit changes the digest"
      QCheck2.Gen.(pair (string_size (int_range 1 200)) (int_bound 10_000))
      (fun (s, flip) ->
        let i = flip mod String.length s in
        let s' =
          String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 1) else c) s
        in
        not (String.equal (Sha256.digest s) (Sha256.digest s')));
    prop "rsa sign/verify round trip on random digests"
      QCheck2.Gen.(string_size (return 32))
      (fun digest ->
        let key = Lazy.force shared_key in
        Rsa.verify key.Rsa.pub ~digest ~signature:(Rsa.sign key digest));
    prop "rsa signatures of different digests differ"
      QCheck2.Gen.(pair (string_size (return 32)) (string_size (return 32)))
      (fun (d1, d2) ->
        let key = Lazy.force shared_key in
        String.equal d1 d2 || not (String.equal (Rsa.sign key d1) (Rsa.sign key d2)));
  ]

let () =
  Alcotest.run "crypto"
    [
      ( "prng",
        [
          Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "copy/split" `Quick test_prng_copy_split;
          Alcotest.test_case "bounds" `Quick test_prng_bounds;
          Alcotest.test_case "uniform-ish" `Quick test_prng_uniformish;
          Alcotest.test_case "bytes/float" `Quick test_prng_bytes_float;
        ] );
      ( "sha256",
        [
          Alcotest.test_case "FIPS vectors" `Quick test_sha256_vectors;
          Alcotest.test_case "million a's" `Slow test_sha256_million_a;
          Alcotest.test_case "incremental = one-shot" `Quick
            test_sha256_incremental_equals_oneshot;
          Alcotest.test_case "finalize once" `Quick test_sha256_finalize_once;
        ] );
      ( "prime",
        [
          Alcotest.test_case "small primes/composites" `Quick test_small_primes;
          Alcotest.test_case "random prime width" `Quick test_random_prime_width;
          Alcotest.test_case "random below" `Quick test_random_below;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "sign/verify + tamper" `Quick test_rsa_sign_verify;
          Alcotest.test_case "deterministic signatures" `Quick
            test_rsa_deterministic_signatures;
          Alcotest.test_case "encrypt/decrypt" `Quick test_rsa_encrypt_decrypt;
          Alcotest.test_case "fingerprint" `Quick test_rsa_fingerprint;
          Alcotest.test_case "key width" `Quick test_rsa_key_width;
          Alcotest.test_case "known answer" `Quick test_rsa_known_answer;
        ] );
      ("properties", props);
    ]
