(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used by the certification service to compute component message digests:
    a certificate binds the digest of a component's code so that any
    post-certification modification is detected at load time.

    Both one-shot and incremental (streaming) interfaces are provided;
    the incremental one lets the loader digest component images chunk by
    chunk. *)

type ctx

(** [init ()] is a fresh hashing context. *)
val init : unit -> ctx

(** [update ctx s] absorbs [s]. Contexts are mutable. *)
val update : ctx -> string -> unit

(** [finalize ctx] completes the hash and returns the 32-byte raw digest.
    The context must not be used afterwards. *)
val finalize : ctx -> string

(** [digest s] is the 32-byte raw digest of [s]. *)
val digest : string -> string

(** [hex_digest s] is the lowercase hexadecimal digest of [s]. *)
val hex_digest : string -> string

(** [to_hex raw] renders a raw digest in lowercase hexadecimal. *)
val to_hex : string -> string
