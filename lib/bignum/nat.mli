(** Arbitrary-precision natural numbers.

    Numbers are immutable. The representation is a little-endian array of
    30-bit limbs, normalized so the most significant limb is non-zero
    (zero is the empty array). All operations are total unless documented
    otherwise; subtraction and division raise on domain errors.

    This module is the arithmetic substrate for the RSA signatures used by
    Paramecium's certification service. It deliberately has no dependency
    on randomness; probabilistic primality lives in [Pm_crypto.Prime]. *)

type t

val zero : t
val one : t
val two : t

(** [of_int n] converts a non-negative [n]. Raises [Invalid_argument]
    if [n < 0]. *)
val of_int : int -> t

(** [to_int x] is [Some n] if [x] fits in an OCaml [int]. *)
val to_int : t -> int option

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool

val min : t -> t -> t
val max : t -> t -> t

val add : t -> t -> t

(** [sub a b] is [a - b]. Raises [Invalid_argument] if [a < b]. *)
val sub : t -> t -> t

val mul : t -> t -> t

(** [divmod a b] is [(a / b, a mod b)]. Raises [Division_by_zero]
    if [b] is zero. *)
val divmod : t -> t -> t * t

val rem : t -> t -> t

(** [pow b e] is [b]^[e] for a machine-int exponent [e >= 0]. *)
val pow : t -> int -> t

(** [mod_pow b e m] is [b]^[e] mod [m], by fixed-window exponentiation
    over Montgomery multiplication when [m] is odd and over long division
    when [m] is even. Raises [Division_by_zero] if [m] is zero. *)
val mod_pow : t -> t -> t -> t

val gcd : t -> t -> t

(** [mod_inv a m] is the multiplicative inverse of [a] modulo [m].
    Raises [Not_found] if [gcd a m <> 1]. *)
val mod_inv : t -> t -> t

(** [shift_left x k] is [x * 2^k]; [k >= 0]. *)
val shift_left : t -> int -> t

(** [shift_right x k] is [x / 2^k]; [k >= 0]. *)
val shift_right : t -> int -> t

(** [bit_length x] is the position of the highest set bit plus one;
    [bit_length zero = 0]. *)
val bit_length : t -> int

(** [test_bit x i] is the value of bit [i] (little-endian). *)
val test_bit : t -> int -> bool

val is_even : t -> bool
val is_odd : t -> bool

(** Decimal conversion. [of_string] accepts an optional ["0x"] prefix for
    hexadecimal; raises [Invalid_argument] on malformed input. *)
val of_string : string -> t

val to_string : t -> string
val to_hex : t -> string

(** Big-endian byte-string conversion, as used for signature blocks.
    [to_bytes_be ~len x] left-pads with zero bytes; raises
    [Invalid_argument] if [x] needs more than [len] bytes. *)
val of_bytes_be : string -> t

val to_bytes_be : ?len:int -> t -> string

val pp : Format.formatter -> t -> unit
