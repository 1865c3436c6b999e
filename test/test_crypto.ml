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

(* A digest of 4 KB allocates its context and its 32-byte result and
   nothing else: blocks are read in place and padded in the context's
   own buffer. [Gc.minor_words] is exact. *)
let test_sha256_allocation () =
  let page = String.make 4096 'p' in
  let context = Obj.reachable_words (Obj.repr (Sha256.init ())) in
  let before = Gc.minor_words () in
  let d = Sha256.digest page in
  let words = Gc.minor_words () -. before in
  Alcotest.(check (float 0.))
    "context + result"
    (float (context + Obj.reachable_words (Obj.repr d)))
    words

(* The reference: SHA-256 as it was written before blocks were read in
   place, copying each full block into a scratch buffer and absorbing a
   padding string built per digest through [update]. *)
module Sha256_model = struct
  let m32 = 0xFFFFFFFF

  let k =
    [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
       0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
       0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
       0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
       0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
       0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
       0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
       0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
       0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
       0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
       0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

  type ctx = { h : int array; buf : Bytes.t; mutable buf_len : int; mutable total : int }

  let init () =
    {
      h =
        [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
           0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
      buf = Bytes.create 64;
      buf_len = 0;
      total = 0;
    }

  let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land m32

  let w = Array.make 64 0

  let compress h block off =
    for t = 0 to 15 do
      let i = off + (t * 4) in
      w.(t) <-
        (Char.code (Bytes.get block i) lsl 24)
        lor (Char.code (Bytes.get block (i + 1)) lsl 16)
        lor (Char.code (Bytes.get block (i + 2)) lsl 8)
        lor Char.code (Bytes.get block (i + 3))
    done;
    for t = 16 to 63 do
      let s0 = rotr w.(t - 15) 7 lxor rotr w.(t - 15) 18 lxor (w.(t - 15) lsr 3) in
      let s1 = rotr w.(t - 2) 17 lxor rotr w.(t - 2) 19 lxor (w.(t - 2) lsr 10) in
      w.(t) <- (w.(t - 16) + s0 + w.(t - 7) + s1) land m32
    done;
    let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
    let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
    for t = 0 to 63 do
      let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
      let ch = (!e land !f) lxor (lnot !e land !g) in
      let t1 = (!hh + s1 + ch + k.(t) + w.(t)) land m32 in
      let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
      let maj = (!a land !b) lxor (!a land !c) lxor (!b land !c) in
      let t2 = (s0 + maj) land m32 in
      hh := !g;
      g := !f;
      f := !e;
      e := (!d + t1) land m32;
      d := !c;
      c := !b;
      b := !a;
      a := (t1 + t2) land m32
    done;
    h.(0) <- (h.(0) + !a) land m32;
    h.(1) <- (h.(1) + !b) land m32;
    h.(2) <- (h.(2) + !c) land m32;
    h.(3) <- (h.(3) + !d) land m32;
    h.(4) <- (h.(4) + !e) land m32;
    h.(5) <- (h.(5) + !f) land m32;
    h.(6) <- (h.(6) + !g) land m32;
    h.(7) <- (h.(7) + !hh) land m32

  let update ctx s =
    let len = String.length s in
    ctx.total <- ctx.total + len;
    let pos = ref 0 in
    if ctx.buf_len > 0 then begin
      let need = 64 - ctx.buf_len in
      let take = Stdlib.min need len in
      Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
      ctx.buf_len <- ctx.buf_len + take;
      pos := take;
      if ctx.buf_len = 64 then begin
        compress ctx.h ctx.buf 0;
        ctx.buf_len <- 0
      end
    end;
    let block = Bytes.create 64 in
    while len - !pos >= 64 do
      Bytes.blit_string s !pos block 0 64;
      compress ctx.h block 0;
      pos := !pos + 64
    done;
    let tail = len - !pos in
    if tail > 0 then begin
      Bytes.blit_string s !pos ctx.buf 0 tail;
      ctx.buf_len <- tail
    end

  let finalize ctx =
    let bit_len = ctx.total * 8 in
    let pad_len =
      let rem = (ctx.total + 1 + 8) mod 64 in
      if rem = 0 then 1 else 1 + (64 - rem)
    in
    let pad = Bytes.make (pad_len + 8) '\000' in
    Bytes.set pad 0 '\x80';
    for i = 0 to 7 do
      Bytes.set pad (pad_len + i) (Char.chr ((bit_len lsr ((7 - i) * 8)) land 0xff))
    done;
    update ctx (Bytes.to_string pad);
    assert (ctx.buf_len = 0);
    String.init 32 (fun i ->
        let word = ctx.h.(i / 4) in
        Char.chr ((word lsr ((3 - (i mod 4)) * 8)) land 0xff))

  let digest s =
    let ctx = init () in
    update ctx s;
    finalize ctx
end

(* Inputs of 0-300 bytes and of 4 KB, and lengths that leave 0, 55, 56,
   63 or 64 bytes past the last full block: the padding takes one block
   up to 55 leftover bytes and two from 56. Each comes with the cut
   points of a random incremental split. *)
let gen_sha_case =
  QCheck2.Gen.(
    frequency
      [
        (6, int_bound 300);
        (1, return 4096);
        ( 3,
          map2
            (fun blocks tail -> (64 * blocks) + tail)
            (int_bound 4)
            (oneofl [ 0; 55; 56; 63; 64 ]) );
      ]
    >>= fun len -> pair (string_size (return len)) (list_size (int_bound 4) (int_bound len)))

let sha_split_digest s cuts =
  let ctx = Sha256.init () in
  let last =
    List.fold_left
      (fun from cut ->
        Sha256.update ctx (String.sub s from (cut - from));
        cut)
      0 (List.sort compare cuts)
  in
  Sha256.update ctx (String.sub s last (String.length s - last));
  Sha256.finalize ctx

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
   here by name. The first key this process generates, so it runs past
   the key memo, on the arithmetic. *)
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

let same_key a b =
  a.Rsa.bits = b.Rsa.bits
  && List.for_all2 Nat.equal
       [ a.Rsa.pub.Rsa.n; a.Rsa.pub.Rsa.e; a.Rsa.p; a.Rsa.q; a.Rsa.dp; a.Rsa.dq; a.Rsa.qinv ]
       [ b.Rsa.pub.Rsa.n; b.Rsa.pub.Rsa.e; b.Rsa.p; b.Rsa.q; b.Rsa.dp; b.Rsa.dq; b.Rsa.qinv ]

let props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:300
         ~name:"sha256: one-shot and split digests equal the reference"
         ~print:(fun (s, cuts) ->
           Printf.sprintf "%d bytes, cuts [%s]" (String.length s)
             (String.concat "; " (List.map string_of_int cuts)))
         gen_sha_case
         (fun (s, cuts) ->
           let expect = Sha256_model.digest s in
           String.equal (Sha256.digest s) expect && String.equal (sha_split_digest s cuts) expect));
    (* a fresh random seed misses the key memo; a second generator at the
       same state hits it *)
    QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~count:20
         ~name:"rsa: a memo hit equals the cold generation and leaves the generator in its state"
         QCheck2.Gen.(pair int (int_range 64 512))
         (fun (seed, bits) ->
           let cold_rng = Prng.create ~seed and hit_rng = Prng.create ~seed in
           let cold = Rsa.generate cold_rng ~bits in
           let hit = Rsa.generate hit_rng ~bits in
           same_key cold hit
           && Int64.equal
                (Pm_crypto.Prng.State.get cold_rng)
                (Pm_crypto.Prng.State.get hit_rng)));
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
          Alcotest.test_case "a 4 KB digest allocates its context and result" `Quick
            test_sha256_allocation;
        ] );
      ( "prime",
        [
          Alcotest.test_case "small primes/composites" `Quick test_small_primes;
          Alcotest.test_case "random prime width" `Quick test_random_prime_width;
          Alcotest.test_case "random below" `Quick test_random_below;
        ] );
      ( "rsa",
        [
          Alcotest.test_case "known answer" `Quick test_rsa_known_answer;
          Alcotest.test_case "sign/verify + tamper" `Quick test_rsa_sign_verify;
          Alcotest.test_case "deterministic signatures" `Quick
            test_rsa_deterministic_signatures;
          Alcotest.test_case "encrypt/decrypt" `Quick test_rsa_encrypt_decrypt;
          Alcotest.test_case "fingerprint" `Quick test_rsa_fingerprint;
          Alcotest.test_case "key width" `Quick test_rsa_key_width;
        ] );
      ("properties", props);
    ]
