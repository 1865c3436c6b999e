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

(** [add_grant t g] records a delegation statement without checking it.
    Its signature is checked the first time a validation's search
    reaches it, and the verdict, sound or not, is kept with this entry
    for the rest of [t]'s life: a grant does not change once issued.
    Expiry and revocation are judged again on every validation. The
    verdict is [t]'s own; another validator taught the same grant checks
    it again. Teaching [t] a grant equal in every field, signature
    included, to one it already holds keeps the existing entry and its
    verdict; a grant that differs in any field is an entry of its own. *)
val add_grant : t -> Delegation.t -> unit

(** [revoke t principal_id] bars a principal; certificates it signed and
    chains through it stop validating. *)
val revoke : t -> string -> unit

(** [validate t cert ~code ~now] runs the full decision procedure. A
    chain cut by an expired grant anywhere along it is [Expired_grant],
    naming that grant's delegate. *)
val validate : t -> Certificate.t -> code:string -> now:int -> decision

(** [signatures_checked t] counts the public-key verifications [t] has
    made since {!create}: a certificate's, once its digest matched, and
    each taught grant's at its first check. What a validation costs is
    the rise in this count across the call. *)
val signatures_checked : t -> int

val failure_to_string : failure -> string
