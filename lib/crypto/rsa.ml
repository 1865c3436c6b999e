module Nat = Pm_bignum.Nat

type public = { n : Nat.t; e : Nat.t }
type keypair = {
  pub : public;
  p : Nat.t;
  q : Nat.t;
  dp : Nat.t;
  dq : Nat.t;
  qinv : Nat.t;
  bits : int;
}

let generate rng ~bits =
  if bits < 64 then invalid_arg "Rsa.generate: need at least 64 bits";
  let half = bits / 2 in
  let rec attempt () =
    let p = Prime.random_prime rng ~bits:half in
    let q = Prime.random_prime rng ~bits:(bits - half) in
    if Nat.equal p q then attempt ()
    else begin
      let n = Nat.mul p q in
      let p1 = Nat.sub p Nat.one and q1 = Nat.sub q Nat.one in
      let phi = Nat.mul p1 q1 in
      let pick_e () =
        let e = Nat.of_int 65537 in
        if Nat.equal (Nat.gcd e phi) Nat.one then Some e
        else begin
          let e = Nat.of_int 3 in
          if Nat.equal (Nat.gcd e phi) Nat.one then Some e else None
        end
      in
      match pick_e () with
      | None -> attempt ()
      | Some e ->
        let d = Nat.mod_inv e phi in
        {
          pub = { n; e };
          p;
          q;
          dp = Nat.rem d p1;
          dq = Nat.rem d q1;
          qinv = Nat.mod_inv q p;
          bits = Nat.bit_length n;
        }
    end
  in
  attempt ()

let modulus_bytes pub = (Nat.bit_length pub.n + 7) / 8

(* PKCS#1 v1.5 type-1 style block: 0x00 0x01 0xFF.. 0x00 digest.
   Deterministic padding makes signatures reproducible and lets [verify]
   simply rebuild and compare the expected block. *)
let pad_block ~len digest =
  let dlen = String.length digest in
  if dlen + 11 > len then invalid_arg "Rsa.pad_block: digest too long for modulus";
  let b = Bytes.make len '\xff' in
  Bytes.set b 0 '\x00';
  Bytes.set b 1 '\x01';
  Bytes.set b (len - dlen - 1) '\x00';
  Bytes.blit_string digest 0 b (len - dlen) dlen;
  Bytes.to_string b

(* c^d mod n by the CRT: c^dp mod p and c^dq mod q, joined by Garner's
   formula m = mq + q (qinv (mp - mq) mod p). Exponents and moduli are
   half as wide as d and n, and the result equals c^d mod n for every
   c < n, so signatures are the textbook ones byte for byte. *)
let private_op key c =
  let mp = Nat.mod_pow c key.dp key.p and mq = Nat.mod_pow c key.dq key.q in
  let diff = Nat.sub (Nat.add mp key.p) (Nat.rem mq key.p) in
  Nat.add mq (Nat.mul key.q (Nat.rem (Nat.mul key.qinv diff) key.p))

let sign key digest =
  let len = modulus_bytes key.pub in
  let block = pad_block ~len digest in
  Nat.to_bytes_be ~len (private_op key (Nat.of_bytes_be block))

let verify pub ~digest ~signature =
  let len = modulus_bytes pub in
  if String.length signature <> len then false
  else begin
    match pad_block ~len digest with
    | exception Invalid_argument _ -> false
    | expected ->
      let s = Nat.of_bytes_be signature in
      if Nat.compare s pub.n >= 0 then false
      else begin
        let m = Nat.mod_pow s pub.e pub.n in
        String.equal (Nat.to_bytes_be ~len m) expected
      end
  end

let encrypt pub m =
  if Nat.compare m pub.n >= 0 then invalid_arg "Rsa.encrypt: message >= modulus";
  Nat.mod_pow m pub.e pub.n

let decrypt key c =
  if Nat.compare c key.pub.n >= 0 then invalid_arg "Rsa.decrypt: ciphertext >= modulus";
  private_op key c

let fingerprint pub =
  let material = Nat.to_bytes_be pub.n ^ "/" ^ Nat.to_bytes_be pub.e in
  String.sub (Sha256.hex_digest material) 0 16
