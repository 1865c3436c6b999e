(** RSA signatures over {!Pm_bignum.Nat}, from scratch.

    This is the public-key half of the certification architecture: the
    certification authority and its delegates hold key pairs; certificates
    carry an RSA signature over a SHA-256 component digest, padded with a
    deterministic PKCS#1-v1.5-style block.

    Key sizes are configurable; tests use short keys (256–512 bits) to stay
    fast, which changes no code path. *)

type public = { n : Pm_bignum.Nat.t; e : Pm_bignum.Nat.t }

(** The private key in CRT form: the private exponent d = e^-1 mod
    (p - 1)(q - 1) is kept only as its residues [dp] and [dq]. *)
type keypair = {
  pub : public;
  p : Pm_bignum.Nat.t; (* n = p * q *)
  q : Pm_bignum.Nat.t;
  dp : Pm_bignum.Nat.t; (* d mod (p - 1) *)
  dq : Pm_bignum.Nat.t; (* d mod (q - 1) *)
  qinv : Pm_bignum.Nat.t; (* q^-1 mod p *)
  bits : int; (* modulus width *)
}

(** [generate rng ~bits] makes a key pair with a [bits]-bit modulus
    ([bits >= 64]) and public exponent 65537 (falling back to 3 when 65537
    divides the totient). Memoised on [rng]'s state and [bits], up to 128
    keys per process: a repeated draw returns the same key and leaves
    [rng] where generating it afresh would. *)
val generate : Prng.t -> bits:int -> keypair

(** [sign key digest] signs a raw digest (any string shorter than the
    modulus minus 11 bytes of padding). Deterministic. *)
val sign : keypair -> string -> string

(** [verify pub ~digest ~signature] checks that [signature] is a valid
    signature of [digest] under [pub]. Never raises: malformed input is
    simply invalid. *)
val verify : public -> digest:string -> signature:string -> bool

(** [modulus_bytes pub] is the signature block length in bytes. *)
val modulus_bytes : public -> int

(** Raw exponentiation, exposed for tests and for the textbook
    encrypt/decrypt round-trip. *)
val encrypt : public -> Pm_bignum.Nat.t -> Pm_bignum.Nat.t

val decrypt : keypair -> Pm_bignum.Nat.t -> Pm_bignum.Nat.t

(** [fingerprint pub] is a short hex identifier of a public key, used as a
    principal identity in the security architecture. *)
val fingerprint : public -> string
