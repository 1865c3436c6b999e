(** Probabilistic primality testing and prime generation (Miller–Rabin).

    Consumes randomness only through an explicit {!Prng.t} so RSA key
    generation is reproducible from a seed. *)

(** [random_below rng n] is uniform in [0, n); [n > 0]. *)
val random_below : Prng.t -> Pm_bignum.Nat.t -> Pm_bignum.Nat.t

(** [random_bits rng ~bits] is uniform in [0, 2^bits). *)
val random_bits : Prng.t -> bits:int -> Pm_bignum.Nat.t

(** [is_probable_prime rng n] runs trial division by small primes
    followed by 24 Miller–Rabin rounds (error probability at most
    4^-24). *)
val is_probable_prime : Prng.t -> Pm_bignum.Nat.t -> bool

(** [random_prime rng ~bits] is a probable prime with exactly [bits] bits
    ([bits >= 2]); the top two bits and the low bit are forced so RSA
    moduli get their full width. *)
val random_prime : Prng.t -> bits:int -> Pm_bignum.Nat.t
