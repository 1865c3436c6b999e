(** Kernel-side certificate validation.

    This is the pure decision procedure behind the nucleus's certification
    service: given the trusted root, the known delegation statements and a
    revocation list, decide whether a certificate authorizes a concrete
    piece of code to enter the kernel protection domain. The checks, in
    order:

    + the code's digest matches the certificate (tamper detection),
    + the certificate signature verifies under the signer's key,
    + the signer speaks for the trusted root through a chain of live,
      well-signed, unrevoked grants in the certification scope.

    "After a component's certificate is validated by the kernel it does
    not require any further software checks." *)

type failure =
  | Digest_mismatch
  | Bad_signature
  | Untrusted_signer of string
  | Revoked_principal of string
  | Expired_grant of string

type decision = Valid of { chain_length : int } | Invalid of failure

type t

(** [create ~root] trusts [root] as the certification authority. *)
val create : root:Principal.t -> t

val root : t -> Principal.t

(** [add_grant t g] records a delegation statement (checked lazily during
    validation). *)
val add_grant : t -> Delegation.t -> unit

(** [revoke t principal_id] bars a principal; certificates it signed and
    chains through it stop validating. *)
val revoke : t -> string -> unit

(** [validate t cert ~code ~now] runs the full decision procedure. *)
val validate : t -> Certificate.t -> code:string -> now:int -> decision

val failure_to_string : failure -> string
