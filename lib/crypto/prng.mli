(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic element of the reproduction — key generation, workload
    synthesis, delegate failure injection — draws from an explicit [t] so
    that tests and experiments are reproducible from a seed. Not a
    cryptographically secure generator; the certification service's
    security argument rests on digests and signatures, not on this. *)

type t

(** [create ~seed] makes an independent generator. Equal seeds give equal
    streams. *)
val create : seed:int -> t

(** [copy t] is a generator with the same future stream as [t]. *)
val copy : t -> t

(** [split t] derives a new independent generator and advances [t]. *)
val split : t -> t

(** [bits t n] is a uniform integer with [n] random bits, [0 <= n <= 62]. *)
val bits : t -> int -> int

(** [int t bound] is uniform in [0, bound); [bound > 0]. *)
val int : t -> int -> int

(** [float t] is uniform in [0, 1). *)
val float : t -> float

(** [bytes t n] is a string of [n] uniform bytes. *)
val bytes : t -> int -> string

(** Read and restore a generator's state, for {!Rsa.generate}'s key memo:
    a hit must leave the generator where a cold generation would. The
    [Paramecium] facade does not export this. *)
module State : sig
  val get : t -> int64
  val set : t -> int64 -> unit
end
